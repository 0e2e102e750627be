// Dining philosophers on the equator: the paper's Section III-E
// unbounded-transitive-closure example.
//
// "Consider a scenario with n participants, with each of them trying to
// grab two forks — one to their left and one to their right. Let them be
// organized in the form of a circular ring located on earth's equator.
// If each of them tries to pick up the two forks at the same tick, then
// although the direct conflicts never involve more than two
// participants, a transitive closure of conflicts encompasses the
// entire world."
//
// This example submits all n grabs in the same instant and shows (a) the
// transitive conflict chain really does wrap the ring, and (b) the
// Information Bound Model (Algorithm 7) breaks it by dropping a few
// grabs — not all of them — so the rest commit with bounded closures.
//
// Run with:
//
//	go run ./examples/philosophers
package main

import (
	"fmt"
	"math"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

const n = 30 // philosophers (and forks)

// ringRadius puts neighbours ~40 units apart, comfortably inside the
// 150-unit chain-breaking threshold while the ring spans 380 units.
const ringRadius = 190.0

// GrabForks atomically claims both adjacent forks if free, marking them
// with the philosopher's number. If either is taken it aborts.
type GrabForks struct {
	id          action.ID
	Philosopher int
	pos         geom.Vec
}

func forkID(i int) world.ObjectID { return world.ObjectID(i%n + 1) }

func (g *GrabForks) left() world.ObjectID  { return forkID(g.Philosopher - 1) }
func (g *GrabForks) right() world.ObjectID { return forkID(g.Philosopher) }

func (g *GrabForks) ID() action.ID     { return g.id }
func (g *GrabForks) Kind() action.Kind { return 300 }

func (g *GrabForks) ReadSet() world.IDSet {
	return world.NewIDSet(g.left(), g.right())
}

func (g *GrabForks) WriteSet() world.IDSet { return g.ReadSet() }

func (g *GrabForks) Apply(tx *world.Tx) bool {
	l, okL := tx.Read(g.left())
	r, okR := tx.Read(g.right())
	if !okL || !okR {
		return false
	}
	if l[0] != 0 || r[0] != 0 {
		return false // a neighbour got there first: abort, stay hungry
	}
	holder := world.Value{float64(g.Philosopher)}
	tx.Write(g.left(), holder)
	tx.Write(g.right(), holder)
	return true
}

func (g *GrabForks) MarshalBody() []byte { return nil }

// Influence places the grab at the philosopher's seat on the ring.
func (g *GrabForks) Influence() geom.Circle {
	return geom.Circle{Center: g.pos, R: 5}
}

func seat(i int) geom.Vec {
	ang := 2 * math.Pi * float64(i) / n
	return geom.Vec{X: ringRadius * math.Cos(ang), Y: ringRadius * math.Sin(ang)}
}

func main() {
	init := world.NewState()
	for i := 1; i <= n; i++ {
		init.Set(world.ObjectID(i), world.Value{0}) // fork i is free
	}

	fmt.Printf("%d philosophers grab their forks in the same instant.\n\n", n)

	// First, measure the chain with the Information Bound disabled.
	chainLen := measureChain(init)
	fmt.Printf("Without chain breaking, one grab's transitive conflict chain\n")
	fmt.Printf("contains %d of the %d other grabs — it wraps the whole ring.\n\n", chainLen, n-1)

	// Now run the full Information Bound Model.
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeInfoBound
	cfg.Threshold = 150
	cfg.Strict = true // an access outside ReadSet/WriteSet is a Violation, and a Violation panics

	srv := core.NewServer(cfg, init)
	clients := make(map[action.ClientID]*core.Client, n)
	for i := 1; i <= n; i++ {
		cid := action.ClientID(i)
		clients[cid] = core.NewClient(cid, cfg, init)
		srv.RegisterClient(cid, 0)
	}

	// Everyone submits before the server sees anything: "the same tick".
	type inflight struct {
		cid action.ClientID
		msg wire.Msg
	}
	var queue []inflight
	for i := 1; i <= n; i++ {
		cid := action.ClientID(i)
		grab := &GrabForks{id: clients[cid].NextActionID(), Philosopher: i, pos: seat(i)}
		msg, _ := clients[cid].Submit(grab)
		queue = append(queue, inflight{cid, msg})
	}

	// All submissions reach the server before any reply is processed —
	// the "same tick" of the thought experiment.
	var replies []core.Reply
	for _, inf := range queue {
		out := srv.HandleMsg(inf.cid, inf.msg, 0)
		replies = append(replies, out.Replies...)
	}

	ate, starved, dropped := 0, 0, 0
	for _, rep := range replies {
		cout := clients[rep.To].HandleMsg(rep.Msg)
		if len(cout.Violations) > 0 {
			panic(fmt.Sprintf("philosophers: %v", cout.Violations))
		}
		for _, m := range cout.ToServer {
			srv.HandleMsg(rep.To, m, 0)
		}
		for _, c := range cout.Commits {
			if c.Res.OK {
				ate++
			} else {
				starved++ // lost the forks to a neighbour
			}
		}
		dropped += len(cout.DroppedLocal)
	}

	fmt.Printf("With the Information Bound Model (threshold %.0f units):\n", cfg.Threshold)
	fmt.Printf("  %d philosophers got both forks\n", ate)
	fmt.Printf("  %d found a fork already taken (conflict abort)\n", starved)
	fmt.Printf("  %d grabs dropped to break the ring-spanning chain\n", dropped)
	if dropped == 0 {
		panic("philosophers: the ring chain was never broken")
	}
	if dropped >= n/2 {
		panic("philosophers: chain breaking dropped half the table")
	}
	if ate == 0 {
		panic("philosophers: nobody ate")
	}
	fmt.Printf("\nDropping %d of %d grabs (%.0f%%) bounded every closure — the paper's\n",
		dropped, n, 100*float64(dropped)/n)
	fmt.Println("point: break long chains by dropping a few actions, not by deciding.")
}

// measureChain stamps all n grabs into an incomplete-world server queue
// (no dropping) and reports the transitive chain length seen by the last
// philosopher's grab.
func measureChain(init *world.State) int {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncomplete
	srv := core.NewServer(cfg, init)
	clients := make(map[action.ClientID]*core.Client, n)
	for i := 1; i <= n; i++ {
		cid := action.ClientID(i)
		clients[cid] = core.NewClient(cid, cfg, init)
		srv.RegisterClient(cid, 0)
	}
	for i := 1; i <= n-1; i++ {
		cid := action.ClientID(i)
		grab := &GrabForks{id: clients[cid].NextActionID(), Philosopher: i, pos: seat(i)}
		msg, _ := clients[cid].Submit(grab)
		srv.HandleMsg(cid, msg, 0) // stamp; never complete — all stay queued
	}
	last := &GrabForks{Philosopher: n, pos: seat(n)}
	return srv.ChainLength(last.ReadSet())
}
