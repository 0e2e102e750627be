package baseline

import (
	"encoding/binary"
	"math"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/oracletest"
	"seve/internal/wire"
	"seve/internal/world"
)

// addAction mirrors the core test action: read rs, sum attr 0, write
// sum+delta into each ws object.
type addAction struct {
	id     action.ID
	rs, ws world.IDSet
	delta  float64
	pos    geom.Vec
	hasPos bool
}

const kindAdd action.Kind = 1001

func (a *addAction) ID() action.ID         { return a.id }
func (a *addAction) Kind() action.Kind     { return kindAdd }
func (a *addAction) ReadSet() world.IDSet  { return a.rs }
func (a *addAction) WriteSet() world.IDSet { return a.ws }

func (a *addAction) Apply(tx *world.Tx) bool {
	sum := 0.0
	for _, id := range a.rs {
		v, ok := tx.Read(id)
		if !ok {
			return false
		}
		sum += v[0]
	}
	for _, id := range a.ws {
		tx.Write(id, world.Value{sum + a.delta})
	}
	return true
}

func (a *addAction) MarshalBody() []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.delta))
}

func (a *addAction) Influence() geom.Circle {
	return geom.Circle{Center: a.pos, R: 5}
}

func initWorld(n int) *world.State {
	s := world.NewState()
	for i := 1; i <= n; i++ {
		s.Set(world.ObjectID(i), world.Value{float64(i)})
	}
	return s
}

func TestCentralExecutesAndReplies(t *testing.T) {
	init := initWorld(2)
	srv := NewCentralServer(init, 0, true)
	srv.RegisterClient(1)
	srv.RegisterClient(2)
	c1 := NewCentralClient(1, init)
	c2 := NewCentralClient(2, init)

	a := &addAction{id: c1.NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10, hasPos: true}
	out := srv.HandleSubmit(1, c1.Submit(a))
	if len(out.Executed) != 1 {
		t.Fatalf("executed = %d", len(out.Executed))
	}
	// Origin gets a Completion, the other client a Batch.
	var commits []core.Commit
	for _, r := range out.Replies {
		switch r.To {
		case 1:
			commits = append(commits, c1.HandleMsg(r.Msg)...)
		case 2:
			c2.HandleMsg(r.Msg)
		}
	}
	if len(commits) != 1 || !commits[0].Res.OK {
		t.Fatalf("commits = %+v", commits)
	}
	v, _ := srv.State().Get(1)
	if v[0] != 11 {
		t.Fatalf("server state = %v, want 11", v)
	}
	if v, _ := c1.View().Get(1); v[0] != 11 {
		t.Fatalf("origin view = %v, want 11", v)
	}
	if v, _ := c2.View().Get(1); v[0] != 11 {
		t.Fatalf("peer view = %v, want 11", v)
	}
	if !srv.State().Equal(oracletest.Replay(init, srv.History()).Final()) {
		t.Fatal("central state diverged from oracle")
	}
}

func TestCentralVisibilityFiltersUpdates(t *testing.T) {
	init := initWorld(2)
	srv := NewCentralServer(init, 10, false)
	srv.RegisterClient(1)
	srv.RegisterClient(2)
	c1 := NewCentralClient(1, init)
	c2 := NewCentralClient(2, init)

	// Establish positions: client 1 at (0,0), client 2 at (100,0).
	a1 := &addAction{id: c1.NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1, pos: geom.Vec{X: 0, Y: 0}}
	a2 := &addAction{id: c2.NextActionID(), rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1, pos: geom.Vec{X: 100, Y: 0}}
	srv.HandleSubmit(1, c1.Submit(a1))
	out := srv.HandleSubmit(2, c2.Submit(a2))
	// Client 1 is 100 away from client 2's action: only the origin reply.
	for _, r := range out.Replies {
		if r.To == 1 {
			if _, isBatch := r.Msg.(*wire.Batch); isBatch {
				t.Fatal("far client received update batch")
			}
		}
	}
}

func TestBroadcastTotalOrderConvergence(t *testing.T) {
	init := initWorld(3)
	srv := NewBroadcastServer(true)
	cfg := NewBroadcastClientConfig()
	clients := map[action.ClientID]*core.Client{}
	for i := action.ClientID(1); i <= 3; i++ {
		srv.RegisterClient(i)
		clients[i] = core.NewClient(i, cfg, init)
	}
	// Conflicting submissions from all three clients, delivered after
	// all are stamped.
	var queued []core.Reply
	for i := action.ClientID(1); i <= 3; i++ {
		a := &addAction{id: clients[i].NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: float64(i) * 10}
		m, _ := clients[i].Submit(a)
		out := srv.HandleSubmit(i, m)
		queued = append(queued, out.Replies...)
	}
	commits := 0
	for _, r := range queued {
		out := clients[r.To].HandleMsg(r.Msg)
		commits += len(out.Commits)
		if len(out.Violations) > 0 {
			t.Fatalf("violations: %v", out.Violations)
		}
	}
	if commits != 3 {
		t.Fatalf("commits = %d, want 3", commits)
	}
	want := oracletest.Replay(init, srv.History()).Final()
	for i := action.ClientID(1); i <= 3; i++ {
		if !clients[i].Stable().LatestState().Equal(want) {
			t.Fatalf("client %d diverged from oracle", i)
		}
	}
}

func TestRingVisibilityFiltering(t *testing.T) {
	init := initWorld(3)
	srv := NewRingServer(50, true)
	cfg := NewRingClientConfig()
	clients := map[action.ClientID]*core.Client{}
	for i := action.ClientID(1); i <= 3; i++ {
		srv.RegisterClient(i)
		clients[i] = core.NewClient(i, cfg, init)
	}
	deliver := func(out Output) {
		for _, r := range out.Replies {
			clients[r.To].HandleMsg(r.Msg)
		}
	}
	// Establish positions: 1 at origin, 2 at 30 (visible), 3 at 200 (not).
	submit := func(cid action.ClientID, x float64, rs, ws world.IDSet, delta float64) {
		a := &addAction{id: clients[cid].NextActionID(), rs: rs, ws: ws, delta: delta, pos: geom.Vec{X: x}}
		m, _ := clients[cid].Submit(a)
		deliver(srv.HandleSubmit(cid, m))
	}
	submit(1, 0, world.NewIDSet(1), world.NewIDSet(1), 1)
	submit(2, 30, world.NewIDSet(2), world.NewIDSet(2), 1)
	submit(3, 200, world.NewIDSet(3), world.NewIDSet(3), 1)
	// Now client 1 acts on object 1 again: clients 2 sees it, 3 does not.
	before2 := clients[2].AppliedRemote()
	before3 := clients[3].AppliedRemote()
	submit(1, 0, world.NewIDSet(1), world.NewIDSet(1), 5)
	if clients[2].AppliedRemote() != before2+1 {
		t.Fatal("visible client did not receive the action")
	}
	if clients[3].AppliedRemote() != before3 {
		t.Fatal("far client received the action despite visibility filter")
	}
	if srv.Suppressed() == 0 {
		t.Fatal("no deliveries suppressed")
	}
}

// TestRingInconsistencyMeasured reproduces the paper's core criticism:
// with a chain of causally linked actions spanning beyond visibility, a
// RING client's state diverges from the serial oracle, and Divergence
// detects it.
func TestRingInconsistencyMeasured(t *testing.T) {
	init := initWorld(2)
	srv := NewRingServer(50, true)
	cfg := NewRingClientConfig()
	clients := map[action.ClientID]*core.Client{}
	for i := action.ClientID(1); i <= 2; i++ {
		srv.RegisterClient(i)
		clients[i] = core.NewClient(i, cfg, init)
	}
	deliver := func(out Output) {
		for _, r := range out.Replies {
			clients[r.To].HandleMsg(r.Msg)
		}
	}
	// Establish client 1's position at x=0 first (a client with unknown
	// position is conservatively treated as visible).
	a0 := &addAction{id: clients[1].NextActionID(), rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1, pos: geom.Vec{X: 0}}
	m0, _ := clients[1].Submit(a0)
	deliver(srv.HandleSubmit(1, m0))

	// Client 2, far away (x=200), writes object 1 — client 1 never hears.
	a2 := &addAction{id: clients[2].NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 100, pos: geom.Vec{X: 200}}
	m2, _ := clients[2].Submit(a2)
	deliver(srv.HandleSubmit(2, m2))
	// Client 1 (x=0) acts on object 1: its stable view of object 1 is
	// stale, so its result diverges from the oracle.
	a1 := &addAction{id: clients[1].NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1, pos: geom.Vec{X: 0}}
	m1, _ := clients[1].Submit(a1)
	deliver(srv.HandleSubmit(1, m1))

	want := oracletest.Replay(init, srv.History()).Final()
	held := clients[1].Stable().IDs()
	div := Divergence(clients[1].Stable(), held, want)
	if div == 0 {
		t.Fatal("RING client consistent despite missed causal action — filter not lossy?")
	}
	// A broadcast client over the same history would be consistent; the
	// oracle value differs from client 1's view on object 1 specifically.
	v, _ := clients[1].Stable().Get(1)
	ov, _ := want.Get(1)
	if v.Equal(ov) {
		t.Fatal("expected object 1 to diverge")
	}
}

func TestDivergenceZeroForConsistentView(t *testing.T) {
	st := initWorld(3)
	if d := Divergence(st, st.IDs(), st); d != 0 {
		t.Fatalf("self-divergence = %d", d)
	}
}
