// Scrying: the paper's Section I motivating example.
//
// "A classic feature for such a game is a 'scrying spell' that allows a
// healer to identify and heal the most wounded ally in a crowd. During
// combat, the result of this spell transaction interacts with all the
// other users, as the health of each player is continually changing.
// The range and nature of such a spell makes character-visibility
// partitioning useless."
//
// This example stages exactly that: archers damage fighters from outside
// the healer's visibility, then the healer casts the scry-heal. Under a
// RING-like visibility filter the healer never hears about the arrows
// and heals the WRONG ally; under SEVE's Incomplete World Model the
// transitive closure (Algorithm 6) delivers the unseen attacks and the
// heal lands correctly — the same serialized world everywhere.
//
// Run with:
//
//	go run ./examples/scrying
package main

import (
	"encoding/binary"
	"fmt"

	"seve/internal/action"
	"seve/internal/baseline"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

// Object layout: fighters 1..3 carry [health, x, y].
const (
	fighterA world.ObjectID = 1 // near the healer
	fighterB world.ObjectID = 2 // near the healer
	fighterC world.ObjectID = 3 // far across the battlefield
)

var fighterIDs = []world.ObjectID{fighterA, fighterB, fighterC}

// Shoot damages one fighter. Its influence is local to the target.
type Shoot struct {
	id     action.ID
	Target world.ObjectID
	Damage float64
	From   geom.Vec
}

func (a *Shoot) ID() action.ID         { return a.id }
func (a *Shoot) Kind() action.Kind     { return 200 }
func (a *Shoot) ReadSet() world.IDSet  { return world.NewIDSet(a.Target) }
func (a *Shoot) WriteSet() world.IDSet { return world.NewIDSet(a.Target) }

func (a *Shoot) Apply(tx *world.Tx) bool {
	v, ok := tx.Read(a.Target)
	if !ok {
		return false
	}
	nv := v.Clone()
	nv[0] -= a.Damage
	tx.Write(a.Target, nv)
	return true
}

func (a *Shoot) MarshalBody() []byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(a.Target))
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(a.Damage*100)))
}

// Influence makes the arrow spatially local — which is exactly why
// visibility filtering believes it can hide it from the healer.
func (a *Shoot) Influence() geom.Circle { return geom.Circle{Center: a.From, R: 5} }

// ScryHeal reads EVERY fighter's health and heals the most wounded one.
// Its read set spans the whole battlefield: no obstruction layer or
// visibility radius can capture its causal dependencies (Section III-B).
type ScryHeal struct {
	id     action.ID
	Amount float64
}

func (a *ScryHeal) ID() action.ID         { return a.id }
func (a *ScryHeal) Kind() action.Kind     { return 201 }
func (a *ScryHeal) ReadSet() world.IDSet  { return world.NewIDSet(fighterIDs...) }
func (a *ScryHeal) WriteSet() world.IDSet { return world.NewIDSet(fighterIDs...) }

func (a *ScryHeal) Apply(tx *world.Tx) bool {
	worst := world.ObjectID(0)
	worstHealth := 1e18
	for _, id := range fighterIDs {
		v, ok := tx.Read(id)
		if !ok {
			return false
		}
		if v[0] < worstHealth {
			worstHealth = v[0]
			worst = id
		}
	}
	v, _ := tx.Read(worst)
	nv := v.Clone()
	nv[0] += a.Amount
	tx.Write(worst, nv)
	return true
}

func (a *ScryHeal) MarshalBody() []byte { return nil }

// battlefield returns the initial world: A slightly hurt, B and C whole.
func battlefield() *world.State {
	init := world.NewState()
	init.Set(fighterA, world.Value{90, 10, 10})   // health 90, near healer
	init.Set(fighterB, world.Value{100, 15, 10})  // health 100, near healer
	init.Set(fighterC, world.Value{100, 500, 10}) // health 100, far away
	return init
}

func main() {
	fmt.Println("The battlefield: fighter A (health 90) and B (100) near the healer,")
	fmt.Println("fighter C (100) far across the map. Unseen archers fire at C.")
	fmt.Println()

	ringHealed := runRing()
	seveHealed := runSEVE()

	fmt.Println()
	fmt.Printf("RING-like visibility filter healed: fighter %v (wrong — C is at 40 health)\n", ringHealed)
	fmt.Printf("SEVE's transitive closure healed:   fighter %v (correct)\n", seveHealed)
	if ringHealed == fighterC {
		panic("scrying: visibility filter unexpectedly saw the arrows")
	}
	if seveHealed != fighterC {
		panic("scrying: SEVE healed the wrong fighter")
	}
}

// runRing plays the scenario through a visibility-filtered relay: the
// archer (client 2) is 500 units from the healer (client 1), far outside
// the 50-unit visibility, so the healer's replica never hears the shots.
func runRing() world.ObjectID {
	init := battlefield()
	srv := baseline.NewRingServer(50, false)
	cfg := baseline.NewRingClientConfig()
	cfg.Strict = true // an access outside ReadSet/WriteSet is a Violation, and a Violation panics
	healer := core.NewClient(1, cfg, init)
	archer := core.NewClient(2, cfg, init)
	srv.RegisterClient(1)
	srv.RegisterClient(2)
	clients := map[action.ClientID]*core.Client{1: healer, 2: archer}

	var lastCommit *core.Commit
	send := func(c *core.Client, a action.Action) {
		msg, _ := c.Submit(a)
		out := srv.HandleSubmit(c.ID(), msg)
		for _, rep := range out.Replies {
			cout := clients[rep.To].HandleMsg(rep.Msg)
			if len(cout.Violations) > 0 {
				panic(fmt.Sprintf("scrying: %v", cout.Violations))
			}
			for i := range cout.Commits {
				lastCommit = &cout.Commits[i]
			}
		}
	}

	// Establish positions: healer acts near (10,10), archer near (500,10).
	send(healer, &Shoot{id: healer.NextActionID(), Target: fighterA, Damage: 0, From: geom.Vec{X: 10, Y: 10}})
	send(archer, &Shoot{id: archer.NextActionID(), Target: fighterC, Damage: 0, From: geom.Vec{X: 500, Y: 10}})

	// Three unseen arrows hit C: health 100 → 40.
	for i := 0; i < 3; i++ {
		send(archer, &Shoot{id: archer.NextActionID(), Target: fighterC, Damage: 20, From: geom.Vec{X: 500, Y: 10}})
	}

	// The healer scries. Its replica still believes C is at full health.
	send(healer, &ScryHeal{id: healer.NextActionID(), Amount: 50})

	dumpReplica("RING healer's replica after the scry", healer.Stable())
	// The scry's stable write record names whoever the healer healed.
	return lastCommit.Res.Writes[0].ID
}

// runSEVE plays the identical scenario through the Incomplete World
// Model: the scry's read set forces Algorithm 6 to ship the healer the
// arrows (and the blind write seeding C's true health).
func runSEVE() world.ObjectID {
	init := battlefield()
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncomplete
	cfg.Strict = true // an access outside ReadSet/WriteSet is a Violation, and a Violation panics
	srv := core.NewServer(cfg, init)
	healer := core.NewClient(1, cfg, init)
	archer := core.NewClient(2, cfg, init)
	srv.RegisterClient(1, 0)
	srv.RegisterClient(2, 0)
	clients := map[action.ClientID]*core.Client{1: healer, 2: archer}

	var lastCommit *core.Commit
	send := func(c *core.Client, a action.Action) {
		msg, _ := c.Submit(a)
		out := srv.HandleMsg(c.ID(), msg, 0)
		for _, rep := range out.Replies {
			cout := clients[rep.To].HandleMsg(rep.Msg)
			if len(cout.Violations) > 0 {
				panic(fmt.Sprintf("scrying: %v", cout.Violations))
			}
			for _, m := range cout.ToServer {
				srv.HandleMsg(rep.To, m, 0)
			}
			for i := range cout.Commits {
				lastCommit = &cout.Commits[i]
			}
		}
	}

	for i := 0; i < 3; i++ {
		send(archer, &Shoot{id: archer.NextActionID(), Target: fighterC, Damage: 20, From: geom.Vec{X: 500, Y: 10}})
	}
	send(healer, &ScryHeal{id: healer.NextActionID(), Amount: 50})
	dumpReplica("SEVE healer's replica after the scry", healer.Stable())
	return lastCommit.Res.Writes[0].ID
}

// dumpReplica prints the fighters' health as one replica sees them.
func dumpReplica(title string, view *world.MVStore) {
	fmt.Printf("  %s:\n", title)
	for _, id := range fighterIDs {
		if cv, ok := view.Get(id); ok {
			fmt.Printf("    fighter %d: health %.0f\n", id, cv[0])
		}
	}
}

var _ wire.Msg = (*wire.Batch)(nil) // documentation pointer: see internal/wire
