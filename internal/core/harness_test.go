package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/oracletest"
	"seve/internal/wire"
	"seve/internal/world"
)

// testAction is a configurable action for protocol tests: it reads every
// object in rs, sums their first attributes, and writes sum+delta into
// the first attribute of every object in ws. Because the written value
// depends on the read values, concurrent writers make optimistic and
// stable evaluations disagree — exercising reconciliation — and the
// serial oracle detects any replay divergence.
type testAction struct {
	id     action.ID
	rs, ws world.IDSet
	delta  float64
	pos    geom.Vec
	radius float64
	hasPos bool
	class  uint8
}

const kindTestAction action.Kind = 1000

func (a *testAction) ID() action.ID         { return a.id }
func (a *testAction) Kind() action.Kind     { return kindTestAction }
func (a *testAction) ReadSet() world.IDSet  { return a.rs }
func (a *testAction) WriteSet() world.IDSet { return a.ws }

func (a *testAction) Apply(tx *world.Tx) bool {
	sum := 0.0
	for _, id := range a.rs {
		v, ok := tx.Read(id)
		if !ok {
			return false
		}
		if len(v) > 0 {
			sum += v[0]
		}
	}
	for _, id := range a.ws {
		tx.Write(id, world.Value{sum + a.delta})
	}
	return true
}

func (a *testAction) MarshalBody() []byte {
	// Only the delta matters for size purposes in these tests.
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.delta))
}

func (a *testAction) Influence() geom.Circle {
	if !a.hasPos {
		return geom.Circle{}
	}
	return geom.Circle{Center: a.pos, R: a.radius}
}

func (a *testAction) InterestClass() uint8 { return a.class }

// spatial wraps testAction construction with a position.
func spatialAt(a *testAction, x, y, r float64) *testAction {
	a.pos, a.radius, a.hasPos = geom.Vec{X: x, Y: y}, r, true
	return a
}

// loopback shuttles messages between one server and its clients with
// zero latency but strict per-link FIFO order, matching the ordering
// guarantees of the TCP deployment and the simulator.
type loopback struct {
	t       *testing.T
	srv     *Server
	clients map[action.ClientID]*Client
	order   []action.ClientID

	toServer []fromMsg
	toClient map[action.ClientID][]wire.Msg

	nowMs float64

	commits    []Commit
	commitBy   map[action.ClientID][]Commit
	drops      []action.ID
	violations []string
	submitted  int
	// relays counts the Relay replies runShapedWorkload recorded.
	relays int
}

type fromMsg struct {
	from action.ClientID
	msg  wire.Msg
}

func newLoopback(t *testing.T, cfg Config, init *world.State, nClients int) *loopback {
	t.Helper()
	masks := make(map[int32]uint64, nClients)
	for i := 1; i <= nClients; i++ {
		masks[int32(i)] = 0
	}
	return newLoopbackMasks(t, cfg, init, masks)
}

// newLoopbackMasks builds a loopback with per-client interest masks
// (0 = all classes). Client ids are the map keys.
func newLoopbackMasks(t *testing.T, cfg Config, init *world.State, masks map[int32]uint64) *loopback {
	t.Helper()
	lb := &loopback{
		t:        t,
		srv:      NewServer(cfg, init),
		clients:  make(map[action.ClientID]*Client),
		toClient: make(map[action.ClientID][]wire.Msg),
		commitBy: make(map[action.ClientID][]Commit),
	}
	ids := make([]int32, 0, len(masks))
	for id := range masks {
		ids = append(ids, id)
	}
	// Map iteration order is random; keep client order deterministic.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, raw := range ids {
		id := action.ClientID(raw)
		lb.clients[id] = NewClient(id, cfg, init)
		lb.srv.RegisterClient(id, masks[raw])
		lb.order = append(lb.order, id)
	}
	return lb
}

// submit creates the client-side submission and queues it for the server.
func (lb *loopback) submit(cid action.ClientID, a *testAction) {
	c := lb.clients[cid]
	a.id = c.NextActionID()
	msg, _ := c.Submit(a)
	lb.toServer = append(lb.toServer, fromMsg{from: cid, msg: msg})
	lb.submitted++
}

// stepServer delivers the oldest pending message to the server.
func (lb *loopback) stepServer() bool {
	if len(lb.toServer) == 0 {
		return false
	}
	fm := lb.toServer[0]
	lb.toServer = lb.toServer[1:]
	out := lb.srv.HandleMsg(fm.from, fm.msg, lb.nowMs)
	lb.requireDelivery(out)
	for _, r := range out.Replies {
		lb.toClient[r.To] = append(lb.toClient[r.To], r.Msg)
	}
	return true
}

// requireDelivery fails the test unless every reply carries the delivery
// class its message type calls for: the table transport.SendQueue.Enqueue
// asserts, stated here on its own, so a reply path that bypasses newReply
// or a wrong row in newReply fails the engine's tests too.
func (lb *loopback) requireDelivery(out ServerOutput) {
	lb.t.Helper()
	for _, r := range out.Replies {
		want := DeliveryOrdered
		switch m := r.Msg.(type) {
		case *wire.Batch:
			want = DeliveryBatch
		case *wire.Drop:
			want = DeliveryCovered
		case *wire.CatchUp:
			if m.Snapshot {
				want = DeliverySnapshot
			}
		}
		if r.Deliver.Class != want {
			lb.t.Fatalf("%T to client %d delivered as class %d, want %d", r.Msg, r.To, r.Deliver.Class, want)
		}
	}
}

// stepClient delivers the oldest pending message to the given client.
func (lb *loopback) stepClient(cid action.ClientID) bool {
	q := lb.toClient[cid]
	if len(q) == 0 {
		return false
	}
	msg := q[0]
	lb.toClient[cid] = q[1:]
	out := lb.clients[cid].HandleMsg(msg)
	lb.absorb(cid, out)
	return true
}

func (lb *loopback) absorb(cid action.ClientID, out ClientOutput) {
	// A revoked provisional commit withdraws the Commit record absorbed
	// when its closure batch landed; the action re-commits at a
	// re-issued position within the same drain.
	for _, rv := range out.Revoked {
		lb.commits = removeCommit(lb.commits, rv)
		lb.commitBy[cid] = removeCommit(lb.commitBy[cid], rv)
	}
	for _, m := range out.ToServer {
		lb.toServer = append(lb.toServer, fromMsg{from: cid, msg: m})
	}
	for _, p := range out.ToPeers {
		lb.toClient[p.To] = append(lb.toClient[p.To], p.Msg)
	}
	lb.commits = append(lb.commits, out.Commits...)
	lb.commitBy[cid] = append(lb.commitBy[cid], out.Commits...)
	lb.drops = append(lb.drops, out.DroppedLocal...)
	lb.violations = append(lb.violations, out.Violations...)
}

func removeCommit(cs []Commit, rv Commit) []Commit {
	for i := len(cs) - 1; i >= 0; i-- {
		if cs[i].ActID == rv.ActID && cs[i].Seq == rv.Seq {
			return append(cs[:i], cs[i+1:]...)
		}
	}
	return cs
}

// tick runs the server's First Bound push cycle.
func (lb *loopback) tick() {
	out := lb.srv.Tick(lb.nowMs)
	lb.requireDelivery(out)
	for _, r := range out.Replies {
		lb.toClient[r.To] = append(lb.toClient[r.To], r.Msg)
	}
}

// drain pumps all queues until quiescent.
func (lb *loopback) drain() {
	for {
		progress := lb.stepServer()
		for _, cid := range lb.order {
			for lb.stepClient(cid) {
				progress = true
			}
		}
		if !progress && len(lb.toServer) == 0 {
			return
		}
	}
}

// drainRandom pumps queues in a randomized but FIFO-per-link order.
func (lb *loopback) drainRandom(rng *rand.Rand) {
	for {
		var choices []func() bool
		if len(lb.toServer) > 0 {
			choices = append(choices, lb.stepServer)
		}
		for _, cid := range lb.order {
			if len(lb.toClient[cid]) > 0 {
				cid := cid
				choices = append(choices, func() bool { return lb.stepClient(cid) })
			}
		}
		if len(choices) == 0 {
			return
		}
		choices[rng.Intn(len(choices))]()
	}
}

// requireNoViolations fails the test if any strict-mode violation was
// recorded anywhere.
func (lb *loopback) requireNoViolations() {
	lb.t.Helper()
	if len(lb.violations) > 0 {
		lb.t.Fatalf("protocol violations:\n%s", lb.violations[0])
	}
}

// checkAgainstOracle verifies the Theorem 1 invariants after a drained
// run: the server's authoritative state equals the oracle state, and
// every commit's stable result equals the oracle result at its position.
func (lb *loopback) checkAgainstOracle(init *world.State) {
	lb.t.Helper()
	hist := lb.srv.History()
	oracle := oracletest.Replay(init, hist)

	if lb.srv.cfg.Mode >= ModeIncomplete {
		if lb.srv.Installed() != uint64(len(hist)) {
			lb.t.Fatalf("installed %d of %d actions after drain", lb.srv.Installed(), len(hist))
		}
		if !lb.srv.Authoritative().Equal(oracle.Final()) {
			lb.t.Fatal("authoritative state ζS diverged from serial oracle")
		}
	}
	for _, c := range lb.commits {
		want, ok := oracle.Result(c.Seq)
		if !ok {
			lb.t.Fatalf("commit at seq %d not in history", c.Seq)
		}
		if !c.Res.Equal(want) {
			lb.t.Fatalf("stable result at seq %d (%v) diverged from oracle:\n got %+v\nwant %+v",
				c.Seq, c.ActID, c.Res, want)
		}
	}
}

// initWorld builds a state with n objects, object i having value {float(i)}.
func initWorld(n int) *world.State {
	s := world.NewState()
	for i := 1; i <= n; i++ {
		s.Set(world.ObjectID(i), world.Value{float64(i)})
	}
	return s
}

func cfgFor(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Strict = true
	cfg.RecordHistory = true
	cfg.Threshold = 1e9 // effectively no drops unless a test lowers it
	return cfg
}

var _ = fmt.Sprintf // keep fmt imported for debug helpers
