package baseline

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

const (
	runClients = 16
	runRounds  = 6
)

// runScenario is the fixed workload every baseline server runs: each
// round, every client in id order reads its own object and one other a
// seeded generator picks, and writes its own, standing at its spot on a
// 4×4 grid 30 apart (so a visibility of 50 filters some recipients).
// endRound runs after each round's submissions.
func runScenario(submit func(from action.ClientID, a *addAction), endRound func()) {
	rng := rand.New(rand.NewSource(1))
	for r := 1; r <= runRounds; r++ {
		for c := 1; c <= runClients; c++ {
			cid := action.ClientID(c)
			submit(cid, &addAction{
				id:    action.ID{Client: cid, Seq: uint32(r)},
				rs:    world.NewIDSet(world.ObjectID(c), world.ObjectID(1+rng.Intn(runClients))),
				ws:    world.NewIDSet(world.ObjectID(c)),
				delta: float64(r),
				pos:   geom.Vec{X: float64(30 * ((c - 1) % 4)), Y: float64(30 * ((c - 1) / 4))},
			})
		}
		endRound()
	}
}

// replyStream is the wire encoding of replies in emission order, each
// frame behind its recipient.
type replyStream []byte

func (s *replyStream) add(to action.ClientID, msg wire.Msg) {
	*s = binary.LittleEndian.AppendUint32(*s, uint32(to))
	*s = wire.AppendFrame(*s, msg)
}

func (s *replyStream) addAll(reps []core.Reply) {
	for _, r := range reps {
		s.add(r.To, r.Msg)
	}
}

func submitMsg(from action.ClientID, a action.Action) *wire.Submit {
	return &wire.Submit{Env: action.Envelope{Origin: from, Act: a}}
}

// relay is a baseline server that answers a submission with replies
// alone.
type relay interface {
	RegisterClient(id action.ClientID)
	HandleSubmit(from action.ClientID, m *wire.Submit) Output
}

func relayRun(srv relay) []byte {
	var s replyStream
	for c := 1; c <= runClients; c++ {
		srv.RegisterClient(action.ClientID(c))
	}
	runScenario(func(from action.ClientID, a *addAction) {
		s.addAll(srv.HandleSubmit(from, submitMsg(from, a)).Replies)
	}, func() {})
	return s
}

// baselineRuns drives each baseline server through runScenario and
// returns its reply stream.
var baselineRuns = map[string]func() []byte{
	"central":   func() []byte { return relayRun(NewCentralServer(initWorld(runClients), 50, false)) },
	"broadcast": func() []byte { return relayRun(NewBroadcastServer(false)) },
	"ring":      func() []byte { return relayRun(NewRingServer(50, false)) },
	// The lock server's replies are delivered at the end of each round,
	// so requests that conflict wait for the effects that release them.
	"lock": func() []byte {
		var s replyStream
		init := initWorld(runClients)
		srv := NewLockServer(init)
		clients := make(map[action.ClientID]*LockClient)
		for c := 1; c <= runClients; c++ {
			cid := action.ClientID(c)
			srv.RegisterClient(cid)
			clients[cid] = NewLockClient(cid, init)
		}
		var inbox []core.Reply
		runScenario(func(from action.ClientID, a *addAction) {
			inbox = append(inbox, srv.HandleSubmit(from, clients[from].Submit(a)).Replies...)
		}, func() {
			for len(inbox) > 0 {
				r := inbox[0]
				inbox = inbox[1:]
				s.add(r.To, r.Msg)
				for _, m := range clients[r.To].HandleMsg(r.Msg).ToServer {
					inbox = append(inbox, srv.HandleEffect(r.To, m.(*wire.Completion)).Replies...)
				}
			}
		})
		return s
	},
	"ownership": func() []byte {
		var s replyStream
		init := initWorld(runClients)
		owner := make(map[world.ObjectID]action.ClientID)
		clients := make(map[action.ClientID]*OwnershipClient)
		for c := 1; c <= runClients; c++ {
			owner[world.ObjectID(c)] = action.ClientID(c)
		}
		srv := NewOwnershipServer(owner, false)
		for c := 1; c <= runClients; c++ {
			cid := action.ClientID(c)
			srv.RegisterClient(cid)
			clients[cid] = NewOwnershipClient(cid, world.NewIDSet(world.ObjectID(c)), init)
		}
		runScenario(func(from action.ClientID, a *addAction) {
			if up, _, ok := clients[from].Execute(a); ok {
				s.addAll(srv.HandleUpdate(from, up).Replies)
			}
		}, func() {})
		return s
	},
	// Zone servers also stream their peer updates, under the zone index.
	"zoned": func() []byte {
		var s replyStream
		g := NewZoneGrid(120, 120, 2, initWorld(runClients))
		for c := 1; c <= runClients; c++ {
			g.RegisterClient(action.ClientID(c))
		}
		runScenario(func(from action.ClientID, a *addAction) {
			z := g.ZoneOf(a.pos)
			out := g.Server(z).HandleSubmit(from, submitMsg(from, a))
			s.addAll(out.Replies)
			for _, m := range out.PeerUpdates {
				s.add(action.ClientID(z), m)
				for p := 0; p < g.Zones(); p++ {
					if p != z {
						g.Server(p).HandlePeerUpdate(m.(*wire.Batch))
					}
				}
			}
		}, func() {})
		return s
	},
}

// TestBaselinesRunTwice is the determinism gate for the baseline
// servers: one scenario, run twice in one process, must emit the same
// reply bytes in the same order. Go randomises map iteration order on
// every range, so a fan-out, grant or emission that follows a map
// differs between the two runs.
func TestBaselinesRunTwice(t *testing.T) {
	for name, run := range baselineRuns {
		first, second := run(), run()
		if len(first) == 0 {
			t.Errorf("%s: the scenario emitted no replies", name)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: two runs of one scenario emitted different reply streams (%d and %d bytes)", name, len(first), len(second))
		}
	}
}
