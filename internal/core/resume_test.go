package core

import (
	"testing"

	"seve/internal/action"
	"seve/internal/oracletest"
	"seve/internal/wire"
	"seve/internal/world"
)

// The resume tests disconnect a loopback client mid-run (drop its
// pending deliveries and unregister it, as the transport's leave event
// would), then reconnect it through HandleResume and verify the Theorem
// 1 invariants still hold. Running the same scenario with a large and a
// tiny ResumeWindow exercises both strategies — suffix replay and
// snapshot fallback — and pins down that they are observably equivalent.

// drainDropping pumps all queues to quiescence while discarding anything
// addressed to the disconnected client.
func (lb *loopback) drainDropping(dead action.ClientID) {
	for {
		lb.toClient[dead] = nil
		progress := lb.stepServer()
		for _, other := range lb.order {
			if other == dead {
				continue
			}
			for lb.stepClient(other) {
				progress = true
			}
		}
		lb.toClient[dead] = nil
		if !progress && len(lb.toServer) == 0 {
			return
		}
	}
}

// runResumeScenario plays a fixed script: a warm-up round, then client 1
// submits missedBatches actions whose replies die with the connection,
// other clients keep writing overlapping objects, and client 1 resumes.
// Returns the drained loopback for inspection.
func runResumeScenario(t *testing.T, window int) (*loopback, *world.State) {
	t.Helper()
	cfg := cfgFor(ModeIncomplete)
	cfg.ResumeWindow = window
	init := initWorld(6)
	lb := newLoopback(t, cfg, init, 3)

	// Warm-up: everyone commits one action over full connectivity.
	lb.submit(1, &testAction{rs: world.IDSet{1, 2}, ws: world.IDSet{1}, delta: 1})
	lb.submit(2, &testAction{rs: world.IDSet{2, 3}, ws: world.IDSet{2}, delta: 2})
	lb.submit(3, &testAction{rs: world.IDSet{3, 4}, ws: world.IDSet{3}, delta: 3})
	lb.drain()

	// Client 1 submits a run of actions; the server processes them but
	// every reply batch is lost with the dying connection.
	const missedBatches = 4
	for i := 0; i < missedBatches; i++ {
		lb.submit(1, &testAction{rs: world.IDSet{1, 5}, ws: world.IDSet{5}, delta: float64(10 + i)})
	}
	for lb.stepServer() {
	}
	lb.toClient[1] = nil
	lb.srv.UnregisterClient(1) // the transport's leave event

	// The survivors keep playing against the objects client 1 touched.
	lb.submit(2, &testAction{rs: world.IDSet{2, 5}, ws: world.IDSet{2}, delta: 20})
	lb.submit(3, &testAction{rs: world.IDSet{4, 5}, ws: world.IDSet{4}, delta: 30})
	lb.drainDropping(1)

	// Reconnect: the client presents its token and last applied batch.
	tok := lb.srv.SessionToken(1)
	if tok == 0 {
		t.Fatal("no session token for client 1")
	}
	cid, out := lb.srv.HandleResume(&wire.Resume{
		Token:        tok,
		LastBatchSeq: lb.clients[1].LastAppliedBatch(),
	}, lb.nowMs)
	if cid != 1 {
		t.Fatalf("resume resolved to client %d, want 1", cid)
	}
	lb.requireDelivery(out)
	for _, r := range out.Replies {
		lb.toClient[r.To] = append(lb.toClient[r.To], r.Msg)
	}
	lb.drain()

	lb.requireNoViolations()
	lb.checkAgainstOracle(init)
	if n := lb.clients[1].QueueLen(); n != 0 {
		t.Fatalf("client 1 still has %d in-flight actions after resume+drain", n)
	}
	return lb, init
}

// TestResumeSuffixVsSnapshotEquivalence runs the identical disconnect
// script with a window that covers the gap (suffix replay) and a window
// of one (snapshot fallback), and requires the two resumed clients to
// converge to the same stable store — Theorem 1 does not care which
// repair path ran.
func TestResumeSuffixVsSnapshotEquivalence(t *testing.T) {
	suffix, _ := runResumeScenario(t, 8)
	snapshot, _ := runResumeScenario(t, 1)

	ss := suffix.srv.Metrics()
	if ss.ResumesSuffix != 1 || ss.ResumesSnapshot != 0 {
		t.Fatalf("wide window: suffix=%d snapshot=%d, want 1/0", ss.ResumesSuffix, ss.ResumesSnapshot)
	}
	sn := snapshot.srv.Metrics()
	if sn.ResumesSnapshot != 1 {
		t.Fatalf("narrow window: snapshot=%d, want 1", sn.ResumesSnapshot)
	}
	if cm := snapshot.clients[1].Metrics(); cm.Resumes != 1 || cm.ResumesSnapshot != 1 {
		t.Fatalf("narrow window client counters: %+v", cm)
	}
	if cm := suffix.clients[1].Metrics(); cm.Resumes != 1 || cm.ResumesSnapshot != 0 {
		t.Fatalf("wide window client counters: %+v", cm)
	}

	// Identical commits for the resumed client, in order.
	ca, cb := suffix.commitBy[1], snapshot.commitBy[1]
	if len(ca) != len(cb) {
		t.Fatalf("commit counts differ: suffix %d, snapshot %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].ActID != cb[i].ActID || ca[i].Seq != cb[i].Seq || !ca[i].Res.Equal(cb[i].Res) {
			t.Fatalf("commit %d differs:\n suffix  %+v\n snapshot %+v", i, ca[i], cb[i])
		}
	}

	// Identical serializations: the same script must produce the same
	// history regardless of which repair path the resume took.
	ha, hb := suffix.srv.History(), snapshot.srv.History()
	if len(ha) != len(hb) {
		t.Fatalf("history lengths differ: suffix %d, snapshot %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Seq != hb[i].Seq || ha[i].Act.ID() != hb[i].Act.ID() {
			t.Fatalf("history diverges at %d: suffix %v@%d, snapshot %v@%d",
				i, ha[i].Act.ID(), ha[i].Seq, hb[i].Act.ID(), hb[i].Seq)
		}
	}
	if !suffix.srv.Authoritative().Equal(snapshot.srv.Authoritative()) {
		t.Fatal("authoritative states diverged between the two runs")
	}

	// Theorem 1 per version: every latest version either ζCS holds must
	// equal the serial-replay value as of that version. (The suffix
	// client may hold OLDER versions of objects it stopped needing — the
	// Incomplete World Model promises per-version consistency, not
	// freshness — so comparing raw latest values across runs would be
	// wrong.)
	oracletest.Replay(initWorld(6), ha).CheckStable(t, "suffix", suffix.clients[1].Stable())
	oracletest.Replay(initWorld(6), hb).CheckStable(t, "snapshot", snapshot.clients[1].Stable())

	// Objects the resumed client itself wrote must be current and equal
	// in both runs — and equal to ζS.
	za := suffix.srv.Authoritative()
	for _, id := range []world.ObjectID{1, 5} {
		va, sa, oka := suffix.clients[1].Stable().Latest(id)
		vb, sb, okb := snapshot.clients[1].Stable().Latest(id)
		if !oka || !okb {
			t.Fatalf("object %d missing from a resumed ζCS (suffix %v, snapshot %v)", id, oka, okb)
		}
		if !va.Equal(vb) || sa != sb {
			t.Fatalf("ζCS diverges at object %d: suffix %v@%d, snapshot %v@%d", id, va, sa, vb, sb)
		}
		if zv, ok := za.Get(id); !ok || !va.Equal(zv) {
			t.Fatalf("ζCS(%d)=%v diverges from ζS=%v", id, va, zv)
		}
	}
}

// TestResumeRejectsUnknownToken: forged and stale-ahead resumes are
// refused with OK=false and counted, and mutate nothing.
func TestResumeRejectsUnknownToken(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.ResumeWindow = 4
	lb := newLoopback(t, cfg, initWorld(3), 2)

	cid, out := lb.srv.HandleResume(&wire.Resume{Token: 0xdead}, 0)
	if cid != 0 {
		t.Fatalf("forged token resolved to client %d", cid)
	}
	if len(out.Replies) != 1 || out.Replies[0].To != 0 {
		t.Fatalf("rejection replies = %+v", out.Replies)
	}
	if cu, ok := out.Replies[0].Msg.(*wire.CatchUp); !ok || cu.OK {
		t.Fatalf("rejection message = %+v", out.Replies[0].Msg)
	}
	lb.requireDelivery(out)

	// A LastBatchSeq ahead of anything ever sent is equally refused.
	tok := lb.srv.SessionToken(1)
	cid, _ = lb.srv.HandleResume(&wire.Resume{Token: tok, LastBatchSeq: 99}, 0)
	if cid != 0 {
		t.Fatal("stale-ahead LastBatchSeq accepted")
	}
	if got := lb.srv.Metrics().ResumesRejected; got != 2 {
		t.Fatalf("ResumesRejected = %d, want 2", got)
	}
}

// TestResumeDedupSwallowsResubmits: a client that re-submits actions the
// server already accepted (the reconnect race) must not double-install
// them.
func TestResumeDedupSwallowsResubmits(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.ResumeWindow = 4
	init := initWorld(3)
	lb := newLoopback(t, cfg, init, 2)

	a := &testAction{rs: world.IDSet{1}, ws: world.IDSet{1}, delta: 7}
	lb.submit(1, a)
	// Duplicate the submission on the wire, as a resume re-submit would.
	lb.toServer = append(lb.toServer, fromMsg{from: 1, msg: &wire.Submit{Env: action.Envelope{Origin: 1, Act: a}}})
	lb.drain()
	lb.requireNoViolations()
	lb.checkAgainstOracle(init)

	st := lb.srv.Metrics()
	if st.DuplicateSubmits != 1 {
		t.Fatalf("DuplicateSubmits = %d, want 1", st.DuplicateSubmits)
	}
	if got := lb.srv.Installed(); got != 1 {
		t.Fatalf("installed %d actions, want 1 (duplicate must not double-install)", got)
	}
}
