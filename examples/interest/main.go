// Interest classes: the Section IV-A optimization, staged with the
// paper's own menagerie.
//
// "Suppose that a net-VE contains humans and insects. A participant who
// is pretending to be an insect in the VE would probably need to
// consistently know the location of other insects and of the humans.
// However, a participant who is acting as a human in the VE may not need
// to reliably know the locations of all of the insects. We can therefore
// extend the system so as to allow the clients to specify exactly what
// kind of actions and information they are interested in."
//
// A human and an insect both buzz around the same clearing. With
// interest filtering on, the human's client never receives the insect's
// wing-beats as pushes — while the insect still tracks the human's every
// step, and closure replies (which carry consistency, not curiosity)
// remain unfiltered.
//
// Run with:
//
//	go run ./examples/interest
package main

import (
	"fmt"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

// Interest classes.
const (
	classHuman  = 1
	classInsect = 2
)

// Buzz is a tiny spatial action: the creature twitches, writing its own
// tuple, tagged with its species' interest class.
type Buzz struct {
	id    action.ID
	Self  world.ObjectID
	Class uint8
	At    geom.Vec
}

func (a *Buzz) ID() action.ID          { return a.id }
func (a *Buzz) Kind() action.Kind      { return 500 }
func (a *Buzz) ReadSet() world.IDSet   { return world.NewIDSet(a.Self) }
func (a *Buzz) WriteSet() world.IDSet  { return world.NewIDSet(a.Self) }
func (a *Buzz) MarshalBody() []byte    { return nil }
func (a *Buzz) Influence() geom.Circle { return geom.Circle{Center: a.At, R: 5} }
func (a *Buzz) InterestClass() uint8   { return a.Class }

func (a *Buzz) Apply(tx *world.Tx) bool {
	v, ok := tx.Read(a.Self)
	if !ok {
		return false
	}
	nv := v.Clone()
	nv[0]++ // twitch counter
	tx.Write(a.Self, nv)
	return true
}

func main() {
	init := world.NewState()
	init.Set(1, world.Value{0}) // the human
	init.Set(2, world.Value{0}) // the insect

	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeFirstBound
	cfg.Strict = true // an access outside ReadSet/WriteSet is a Violation, and a Violation panics
	cfg.InterestFilter = true
	cfg.MaxSpeed = 0 // keep Equation (1) spheres tight for the demo
	now := 10.0

	srv := core.NewServer(cfg, init)
	human := core.NewClient(1, cfg, init)
	insect := core.NewClient(2, cfg, init)
	// The human subscribes only to human-class actions; the insect to
	// both species (it must dodge feet).
	srv.RegisterClient(1, 1<<classHuman)
	srv.RegisterClient(2, (1<<classHuman)|(1<<classInsect))
	clients := map[action.ClientID]*core.Client{1: human, 2: insect}

	// Completion messages are held in flight until after each push tick,
	// as they would be on a real 476 ms round trip — otherwise every
	// action installs before the push cycle sees it.
	type inflight struct {
		from action.ClientID
		msg  wire.Msg
	}
	var completions []inflight
	deliver := func(out core.ServerOutput) {
		for _, rep := range out.Replies {
			cout := clients[rep.To].HandleMsg(rep.Msg)
			if len(cout.Violations) > 0 {
				panic(fmt.Sprintf("interest: %v", cout.Violations))
			}
			for _, m := range cout.ToServer {
				completions = append(completions, inflight{rep.To, m})
			}
		}
	}
	flushCompletions := func() {
		for _, c := range completions {
			srv.HandleMsg(c.from, c.msg, now)
		}
		completions = completions[:0]
	}

	// Both creatures announce their positions, side by side.
	submit := func(c *core.Client, self world.ObjectID, class uint8) {
		b := &Buzz{id: c.NextActionID(), Self: self, Class: class, At: geom.Vec{X: float64(self), Y: 0}}
		msg, _ := c.Submit(b)
		deliver(srv.HandleMsg(c.ID(), msg, now))
	}
	submit(human, 1, classHuman)
	submit(insect, 2, classInsect)

	// A busy minute in the clearing: the insect buzzes constantly, the
	// human takes a few steps; the server pushes every ω·RTT.
	for round := 0; round < 10; round++ {
		now += 10
		submit(insect, 2, classInsect)
		if round%3 == 0 {
			submit(human, 1, classHuman)
		}
		now += cfg.PushIntervalMs()
		deliver(srv.Tick(now))
		flushCompletions()
	}

	fmt.Println("After a busy minute in the clearing:")
	fmt.Printf("  the human's client evaluated %d remote actions (insect buzzes filtered)\n",
		human.AppliedRemote())
	fmt.Printf("  the insect's client evaluated %d remote actions (it tracks the human)\n",
		insect.AppliedRemote())
	if human.AppliedRemote() != 0 {
		panic("interest: insect buzzes leaked through the human's filter")
	}
	if insect.AppliedRemote() == 0 {
		panic("interest: the insect never saw the human move")
	}
	fmt.Println()
	fmt.Println("Same world, same consistency guarantees — the human just stopped")
	fmt.Println("paying bandwidth and compute for wing-beats it will never act on.")
	_ = wire.TypeBatch
}
