// Quickstart: the smallest complete SEVE program.
//
// It defines a one-object "counter" world and a custom Increment action,
// wires one server and two client engines together in-process, and walks
// through the protocol: optimistic evaluation, server serialization,
// stable commit, and reconciliation when two clients race.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
	"seve/internal/world"
)

// counterID is the single shared object.
const counterID world.ObjectID = 1

// Increment is a minimal action: read the counter, add Delta, write it
// back. Because the written value depends on the read value, two
// concurrent increments conflict — the case the action-based protocol
// resolves without locks and in one round trip.
type Increment struct {
	id    action.ID
	Delta float64
}

func (a *Increment) ID() action.ID         { return a.id }
func (a *Increment) Kind() action.Kind     { return 100 }
func (a *Increment) ReadSet() world.IDSet  { return world.NewIDSet(counterID) }
func (a *Increment) WriteSet() world.IDSet { return world.NewIDSet(counterID) }

func (a *Increment) Apply(tx *world.Tx) bool {
	v, ok := tx.Read(counterID)
	if !ok {
		return false // fatal conflict: abort as a no-op
	}
	tx.Write(counterID, world.Value{v[0] + a.Delta})
	return true
}

func (a *Increment) MarshalBody() []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.Delta))
}

func main() {
	// The world starts with the counter at zero.
	init := world.NewState()
	init.Set(counterID, world.Value{0})

	// Protocol level: the Incomplete World Model (Algorithms 4-6).
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncomplete
	cfg.Strict = true // an access outside ReadSet/WriteSet is a Violation, and a Violation panics

	server := core.NewServer(cfg, init)
	alice := core.NewClient(1, cfg, init)
	bob := core.NewClient(2, cfg, init)
	server.RegisterClient(1, 0)
	server.RegisterClient(2, 0)

	// deliver shuttles one client message to the server and the server's
	// replies back — in production this is TCP (internal/transport) or
	// the network simulator (internal/experiments).
	deliver := func(c *core.Client, msg wire.Msg) {
		out := server.HandleMsg(c.ID(), msg, 0)
		for _, rep := range out.Replies {
			target := alice
			if rep.To == 2 {
				target = bob
			}
			cout := target.HandleMsg(rep.Msg)
			if len(cout.Violations) > 0 {
				panic(fmt.Sprintf("quickstart: %v", cout.Violations))
			}
			for _, m := range cout.ToServer {
				server.HandleMsg(target.ID(), m, 0)
			}
			for _, commit := range cout.Commits {
				status := "committed"
				if commit.Reconciled {
					status = "committed (after reconciliation)"
				}
				fmt.Printf("  client %d: action %v %s at position %d → counter %v\n",
					target.ID(), commit.ActID, status, commit.Seq, commit.Res.Writes[0].Val)
			}
		}
	}

	fmt.Println("1. Alice optimistically adds 10, Bob concurrently adds 100.")
	aMsg, aOpt := alice.Submit(&Increment{id: alice.NextActionID(), Delta: 10})
	bMsg, bOpt := bob.Submit(&Increment{id: bob.NextActionID(), Delta: 100})
	fmt.Printf("  Alice's optimistic view: %v (instant feedback)\n", aOpt.Writes[0].Val)
	fmt.Printf("  Bob's optimistic view:   %v — stale! He hasn't seen Alice's action\n", bOpt.Writes[0].Val)

	fmt.Println("2. The server serializes both; stable evaluations replace guesses.")
	deliver(alice, aMsg)
	deliver(bob, bMsg)

	av, _ := alice.Optimistic().Get(counterID)
	bv, _ := bob.Optimistic().Get(counterID)
	sv, _ := server.Authoritative().Get(counterID)
	fmt.Println("3. The world is 'incomplete' by design:")
	fmt.Printf("  Alice still sees %v — nothing she did depended on Bob's action,\n", av)
	fmt.Printf("  so the server never sent it to her (that is the scalability win).\n")
	fmt.Printf("  Bob sees %v, the authoritative state ζS holds %v.\n", bv, sv)
	if bv[0] != 110 || sv[0] != 110 {
		panic("quickstart: states diverged")
	}

	fmt.Println("4. The moment Alice touches the counter again, the transitive")
	fmt.Println("   closure (Algorithm 6) ships her everything she needs:")
	aMsg2, _ := alice.Submit(&Increment{id: alice.NextActionID(), Delta: 1})
	deliver(alice, aMsg2)
	av, _ = alice.Optimistic().Get(counterID)
	fmt.Printf("  Alice now sees %v.\n", av)
	if av[0] != 111 {
		panic("quickstart: Alice failed to converge")
	}
}
