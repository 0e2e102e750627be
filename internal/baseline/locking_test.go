package baseline

import (
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/oracletest"
	"seve/internal/wire"
	"seve/internal/world"
)

// lockLoop wires a LockServer and its clients synchronously.
type lockLoop struct {
	srv     *LockServer
	clients map[action.ClientID]*LockClient
	commits []core.Commit
}

func newLockLoop(init *world.State, n int) *lockLoop {
	l := &lockLoop{srv: NewLockServer(init), clients: map[action.ClientID]*LockClient{}}
	for i := 1; i <= n; i++ {
		id := action.ClientID(i)
		l.srv.RegisterClient(id)
		l.clients[id] = NewLockClient(id, init)
	}
	return l
}

func (l *lockLoop) pump(out Output) {
	for len(out.Replies) > 0 {
		rep := out.Replies[0]
		out.Replies = out.Replies[1:]
		co := l.clients[rep.To].HandleMsg(rep.Msg)
		l.commits = append(l.commits, co.Commits...)
		for _, m := range co.ToServer {
			eff := m.(*wire.Completion)
			more := l.srv.HandleEffect(rep.To, eff)
			out.Replies = append(out.Replies, more.Replies...)
		}
	}
}

func TestLockingSerializesConflicts(t *testing.T) {
	init := initWorld(1)
	l := newLockLoop(init, 2)

	a1 := &addAction{id: l.clients[1].NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10}
	a2 := &addAction{id: l.clients[2].NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 100}

	// Both lock requests arrive before either effect: the second must
	// queue.
	out1 := l.srv.HandleSubmit(1, l.clients[1].Submit(a1))
	out2 := l.srv.HandleSubmit(2, l.clients[2].Submit(a2))
	if l.srv.Granted() != 1 || l.srv.Queued() != 1 {
		t.Fatalf("granted=%d queued=%d, want 1/1", l.srv.Granted(), l.srv.Queued())
	}
	l.pump(out1)
	l.pump(out2) // no grant was in out2; pump is a no-op for it

	if len(l.commits) != 2 {
		t.Fatalf("commits = %d, want 2", len(l.commits))
	}
	// Serial result: 1+10=11 then 11+100=111.
	v, _ := l.srv.State().Get(1)
	if v[0] != 111 {
		t.Fatalf("authoritative = %v, want 111", v)
	}
	for id, c := range l.clients {
		cv, _ := c.View().Get(1)
		if cv[0] != 111 {
			t.Fatalf("client %d view = %v, want 111", id, cv)
		}
	}
}

func TestLockingDisjointRunsConcurrently(t *testing.T) {
	init := initWorld(2)
	l := newLockLoop(init, 2)
	a1 := &addAction{id: l.clients[1].NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}
	a2 := &addAction{id: l.clients[2].NextActionID(), rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}
	l.srv.HandleSubmit(1, l.clients[1].Submit(a1))
	l.srv.HandleSubmit(2, l.clients[2].Submit(a2))
	if l.srv.Granted() != 2 || l.srv.Queued() != 0 {
		t.Fatalf("granted=%d queued=%d, want 2/0 for disjoint lock sets", l.srv.Granted(), l.srv.Queued())
	}
}

func TestLockingGrantForUnknownActionIgnored(t *testing.T) {
	c := NewLockClient(1, initWorld(1))
	out := c.HandleMsg(&wire.LockGrant{Seq: 9, ActID: action.ID{Client: 1, Seq: 99}})
	if len(out.ToServer) != 0 || out.Executed != nil {
		t.Fatal("phantom grant produced output")
	}
}

func TestOwnershipLocalCommitAndRelay(t *testing.T) {
	init := initWorld(2)
	owner := map[world.ObjectID]action.ClientID{1: 1, 2: 2}
	srv := NewOwnershipServer(owner, true)
	c1 := NewOwnershipClient(1, world.NewIDSet(1), init)
	c2 := NewOwnershipClient(2, world.NewIDSet(2), init)
	srv.RegisterClient(1)
	srv.RegisterClient(2)

	a := &addAction{id: c1.NextActionID(), rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10}
	update, res, ok := c1.Execute(a)
	if !ok || !res.OK {
		t.Fatalf("owner's action refused: ok=%v res=%+v", ok, res)
	}
	// Local commit is instant.
	if v, _ := c1.View().Get(1); v[0] != 11 {
		t.Fatalf("owner view = %v, want 11", v)
	}
	out := srv.HandleUpdate(1, update)
	if len(out.Replies) != 1 || out.Replies[0].To != 2 {
		t.Fatalf("relay = %+v", out.Replies)
	}
	c2.HandleMsg(out.Replies[0].Msg)
	if v, _ := c2.View().Get(1); v[0] != 11 {
		t.Fatalf("cacher view = %v, want 11", v)
	}
}

func TestOwnershipRejectsForeignWrites(t *testing.T) {
	init := initWorld(2)
	c1 := NewOwnershipClient(1, world.NewIDSet(1), init)
	// Client 1 tries to write object 2, which it does not own.
	a := &addAction{id: c1.NextActionID(), rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 5}
	if _, _, ok := c1.Execute(a); ok {
		t.Fatal("foreign write executed")
	}
	if c1.Rejected() != 1 {
		t.Fatalf("client rejected = %d", c1.Rejected())
	}
	// And the server independently refuses a forged update.
	srv := NewOwnershipServer(map[world.ObjectID]action.ClientID{2: 2}, false)
	srv.RegisterClient(1)
	srv.RegisterClient(2)
	out := srv.HandleUpdate(1, &wire.Submit{Env: action.Envelope{Origin: 1, Act: a}})
	if len(out.Replies) != 0 {
		t.Fatal("forged update relayed")
	}
	if srv.Rejected() != 1 {
		t.Fatalf("server rejected = %d", srv.Rejected())
	}
}

// TestOwnershipStaleReadsDiverge: ownership caches are only eventually
// updated, so an owner acting on a cached (stale) read computes a value
// the serial oracle disagrees with — the consistency cost of the
// protocol family.
func TestOwnershipStaleReadsDiverge(t *testing.T) {
	init := initWorld(2)
	owner := map[world.ObjectID]action.ClientID{1: 1, 2: 2}
	srv := NewOwnershipServer(owner, true)
	c1 := NewOwnershipClient(1, world.NewIDSet(1), init)
	c2 := NewOwnershipClient(2, world.NewIDSet(2), init)
	srv.RegisterClient(1)
	srv.RegisterClient(2)

	// Client 2 bumps its object (2 → 2+50=52); the relay to client 1 is
	// IN FLIGHT (not yet delivered).
	u2, _, _ := c2.Execute(&addAction{id: c2.NextActionID(), rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 50})
	inflight := srv.HandleUpdate(2, u2)

	// Client 1 reads both objects and writes its own: it sees the STALE
	// object 2 (value 2, not 52).
	u1, res, _ := c1.Execute(&addAction{id: c1.NextActionID(), rs: world.NewIDSet(1, 2), ws: world.NewIDSet(1), delta: 0})
	srv.HandleUpdate(1, u1)
	// Serial order would give 1 + 52 = 53; the stale read gives 1+2=3.
	if res.Writes[0].Val[0] != 3 {
		t.Fatalf("expected stale result 3, got %v", res.Writes[0].Val)
	}

	// Deliver the in-flight relay and replay the oracle to confirm the
	// divergence is real and measurable.
	for _, rep := range inflight.Replies {
		if rep.To == 1 {
			c1.HandleMsg(rep.Msg)
		}
	}
	st := oracletest.Replay(init, srv.History()).Final()
	ov, _ := st.Get(1)
	if ov[0] == 3 {
		t.Fatal("oracle agrees with stale execution; test setup wrong")
	}
	if d := Divergence(c1.View(), world.NewIDSet(1), st); d != 1 {
		t.Fatalf("divergence = %d, want 1", d)
	}
}
