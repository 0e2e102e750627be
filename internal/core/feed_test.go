package core

import (
	"fmt"
	"testing"

	"seve/internal/action"
	"seve/internal/oracletest"
	"seve/internal/wire"
	"seve/internal/world"
)

// These tests drive the durability seams from the engine side without
// package durable: a recording Journal pins the commit-feed contract
// (feed.go), and a hand-built RestoreState plays the role of a
// recovered directory so the crash-restart = resume path — Restore,
// the boot fence, provisional-commit revocation — runs entirely inside
// the loopback harness. The end-to-end twin with the real store is
// internal/netsim's kill-recover matrix.

// recordingJournal captures the feed verbatim. CommitGroup copies the
// records because the engine reuses its scratch slice across groups.
type recordingJournal struct {
	epochs   []uint64
	groups   [][]CommitRecord
	opens    []action.ClientID
	retained int
}

func (j *recordingJournal) CommitGroup(epoch uint64, nextBlind uint32, recs []CommitRecord) {
	cp := make([]CommitRecord, len(recs))
	copy(cp, recs)
	j.epochs = append(j.epochs, epoch)
	j.groups = append(j.groups, cp)
}

func (j *recordingJournal) SessionOpen(id action.ClientID, token, mask, seqNo, stampFloor uint64) {
	j.opens = append(j.opens, id)
}

func (j *recordingJournal) BatchRetained(id action.ClientID, b *wire.Batch) {
	j.retained++
}

// TestJournalFeedEmitsGroups pins the feed contract: one contiguous
// group per install pass in serial order, session mints journaled with
// the registration, no reply ever journaled, and a nil SetJournal
// detaching the feed cleanly.
func TestJournalFeedEmitsGroups(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.ResumeWindow = 8
	init := initWorld(4)
	lb := newLoopback(t, cfg, init, 1)
	j := &recordingJournal{}
	lb.srv.SetJournal(j)
	lb.srv.RegisterClient(2, 0) // mint journaled: attached before this open

	lb.submit(1, &testAction{rs: world.IDSet{1, 2}, ws: world.IDSet{1}, delta: 1})
	lb.submit(1, &testAction{rs: world.IDSet{1, 3}, ws: world.IDSet{3}, delta: 2})
	lb.drain()
	lb.requireNoViolations()

	if len(j.opens) != 1 || j.opens[0] != 2 {
		t.Fatalf("session opens journaled: %v, want [2]", j.opens)
	}
	var seqs []uint64
	for gi, g := range j.groups {
		for _, r := range g {
			seqs = append(seqs, r.Seq)
			if r.Origin != 1 {
				t.Fatalf("group %d record %+v: want Origin 1", gi, r)
			}
			if uint32(r.Seq) != r.ActSeq {
				t.Fatalf("record %+v: one client submitting serially must have ActSeq == Seq", r)
			}
		}
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("journaled serial positions %v, want [1 2]", seqs)
	}
	for i := 1; i < len(j.epochs); i++ {
		if j.epochs[i] <= j.epochs[i-1] {
			t.Fatalf("epoch counter not increasing: %v", j.epochs)
		}
	}
	if lb.srv.retainedBatches() == 0 {
		t.Fatal("client 1's resume window retained no batch")
	}
	if j.retained != 0 {
		t.Fatalf("the engine journaled %d reply batches, want none", j.retained)
	}

	lb.srv.SetJournal(nil)
	before := len(j.groups)
	lb.submit(1, &testAction{rs: world.IDSet{1}, ws: world.IDSet{1}, delta: 3})
	lb.drain()
	if len(j.groups) != before {
		t.Fatalf("detached journal still saw %d new groups", len(j.groups)-before)
	}
	if lb.srv.Installed() != 3 {
		t.Fatalf("installed %d, want 3", lb.srv.Installed())
	}
}

// restoreFrom builds the RestoreState a durable recovery at floor would
// return for lb's server: sessions keep their tokens and mint order, and
// dedup floors are recomputed from the history prefix.
func restoreFrom(lb *loopback, floor uint64) RestoreState {
	rec := RestoreState{
		UpTo:       floor,
		NextBlind:  lb.srv.nextBlind,
		Boot:       lb.srv.boot + 1,
		SessionSeq: lb.srv.sessionSeq,
	}
	for _, cid := range lb.order {
		sess := lb.srv.recs[cid].sess
		sr := SessionRecord{ID: cid, Token: sess.token, Mask: sess.mask, SeqNo: sess.seqNo}
		for _, env := range lb.srv.History()[:floor] {
			if env.Origin == cid && env.Act.ID().Seq > sr.LastActSeq {
				sr.LastActSeq = env.Act.ID().Seq
			}
		}
		rec.Sessions = append(rec.Sessions, sr)
	}
	return rec
}

// TestRestartBootFence is the crash window in miniature: client 1's
// last action commits provisionally on the client (ModeIncomplete
// closure reply) but its completion dies with the server, so the
// restarted boot recovers at a floor below the committed position.
// The resume's CatchUp must carry the new Boot and BootFloor, the
// client must revoke the orphaned commit and re-submit the action, and
// the re-issued position must converge to the serial oracle. Client 3
// joined and never applied a batch: its LastBatchSeq of 0 matches
// anything a server could count, yet it too must resume by snapshot,
// like every recovered session.
func TestRestartBootFence(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.ResumeWindow = 8
	init := initWorld(6)
	lb := newLoopback(t, cfg, init, 3)

	// Warm-up: clients 1 and 2 commit one action over full connectivity.
	lb.submit(1, &testAction{rs: world.IDSet{1, 2}, ws: world.IDSet{1}, delta: 1})
	lb.submit(2, &testAction{rs: world.IDSet{2, 3}, ws: world.IDSet{2}, delta: 2})
	lb.drain()
	floor := lb.srv.Installed()

	// Client 1's next action is stamped and its closure reply applied —
	// a provisional commit — but the completion is still in flight when
	// the server dies.
	lb.submit(1, &testAction{rs: world.IDSet{1, 5}, ws: world.IDSet{5}, delta: 10})
	for lb.stepServer() {
	}
	for lb.stepClient(1) {
	}
	lost := floor + 1
	provisional := false
	for _, c := range lb.commitBy[1] {
		provisional = provisional || c.Seq == lost
	}
	if !provisional {
		t.Fatalf("client 1 absorbed no provisional commit at seq %d: %+v", lost, lb.commitBy[1])
	}
	lb.toServer = nil // the crash swallows the in-flight completion
	if got := lb.clients[3].LastAppliedBatch(); got != 0 {
		t.Fatalf("idle client 3 applied batch %d before the crash, want none", got)
	}

	// Restart: a fresh engine over the replayed prefix, rewound by the
	// recovery record, one boot generation up.
	history := lb.srv.History()[:floor]
	rec := restoreFrom(lb, floor)
	srv2 := NewServer(cfg, oracletest.Replay(init, history).Final())
	srv2.Restore(rec)
	if srv2.Boot() != 1 {
		t.Fatalf("restored boot %d, want 1", srv2.Boot())
	}
	lb.srv = srv2

	// Every client resumes against the restarted server, and every
	// resume is a snapshot: the journal kept no replies to replay.
	for _, cid := range lb.order {
		tok := srv2.SessionToken(cid)
		if tok == 0 {
			t.Fatalf("client %d: no recovered session token", cid)
		}
		got, out := srv2.HandleResume(&wire.Resume{
			Token:        tok,
			LastBatchSeq: lb.clients[cid].LastAppliedBatch(),
		}, lb.nowMs)
		if got != cid {
			t.Fatalf("resume resolved to client %d, want %d", got, cid)
		}
		for _, r := range out.Replies {
			lb.toClient[r.To] = append(lb.toClient[r.To], r.Msg)
		}
	}
	if m := srv2.Metrics(); m.ResumesSnapshot != 3 || m.ResumesSuffix != 0 {
		t.Fatalf("resumes against the restarted server: %d snapshot, %d suffix; want 3 and 0", m.ResumesSnapshot, m.ResumesSuffix)
	}
	lb.drain()
	lb.requireNoViolations()

	// The orphaned provisional commit was revoked (absorb withdrew it)
	// and the action re-committed exactly once at a re-issued position.
	var reissued []Commit
	for _, c := range lb.commitBy[1] {
		if c.Seq > floor {
			reissued = append(reissued, c)
		}
	}
	if len(reissued) != 1 || reissued[0].Seq < lost {
		t.Fatalf("re-issued commits for client 1: %+v, want exactly one at seq >= %d", reissued, lost)
	}
	if lb.clients[1].QueueLen() != 0 {
		t.Fatalf("client 1 still has %d in-flight actions", lb.clients[1].QueueLen())
	}

	// Theorem 1 against the stitched history: the recovered prefix plus
	// the re-issued suffix replayed serially must equal ζS, and every
	// surviving commit's stable result must match the oracle.
	oracle := oracletest.Replay(init, history, srv2.History())
	if !srv2.Authoritative().Equal(oracle.Final()) {
		t.Fatal("restarted authoritative state diverged from the stitched serial oracle")
	}
	for _, c := range lb.commits {
		want, ok := oracle.Result(c.Seq)
		if !ok {
			t.Fatalf("commit at seq %d not in stitched history", c.Seq)
		}
		if !c.Res.Equal(want) {
			t.Fatalf("stable result at seq %d diverged from oracle", c.Seq)
		}
	}
}

// TestRestartResumeRetriedAfterLostCatchUp loses the first CatchUp a
// restarted server sends. Before the crash client 1 applied client 2's
// action on object 4 and its own action on object 5 above the recovered
// floor; the new boot re-issues those positions in the other order. In
// "one batch" the engine numbered one batch for client 1 before its
// connection died (as a push or a seeds batch would), so its retry,
// which presents the same LastBatchSeq, is covered by the window; in
// "no batch" the retry presents a LastBatchSeq the new boot never sent.
// Either way the retry must be a snapshot, neither a rejection nor a
// suffix replay across boots (which would keep the dead boot's object 4
// at a position the new boot gives to client 1's own action), and every
// client's stable store must pass Theorem 1 against the stitched
// history.
func TestRestartResumeRetriedAfterLostCatchUp(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch bool
	}{{"no batch", false}, {"one batch", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfgFor(ModeIncomplete)
			cfg.ResumeWindow = 8
			init := initWorld(6)
			lb := newLoopback(t, cfg, init, 2)

			lb.submit(1, &testAction{rs: world.IDSet{1, 2}, ws: world.IDSet{1}, delta: 1})
			lb.submit(2, &testAction{rs: world.IDSet{2, 3}, ws: world.IDSet{2}, delta: 2})
			lb.drain()
			floor := lb.srv.Installed()
			lb.submit(2, &testAction{rs: world.IDSet{4}, ws: world.IDSet{4}, delta: 100})
			lb.submit(1, &testAction{rs: world.IDSet{4, 5}, ws: world.IDSet{5}, delta: 10})
			for lb.stepServer() {
			}
			for lb.stepClient(1) {
			}
			if _, seq, _ := lb.clients[1].Stable().Latest(4); seq != floor+1 {
				t.Fatalf("client 1 holds object 4 at seq %d, want the lost position %d", seq, floor+1)
			}
			lb.toServer, lb.toClient[2] = nil, nil // the crash

			history := lb.srv.History()[:floor]
			srv2 := NewServer(cfg, oracletest.Replay(init, history).Final())
			srv2.Restore(restoreFrom(lb, floor))
			lb.srv = srv2

			resume := func(cid action.ClientID) {
				t.Helper()
				got, out := srv2.HandleResume(&wire.Resume{
					Token:        srv2.SessionToken(cid),
					LastBatchSeq: lb.clients[cid].LastAppliedBatch(),
				}, lb.nowMs)
				if got != cid {
					t.Fatalf("resume of client %d resolved to %d (rejected)", cid, got)
				}
				for _, r := range out.Replies {
					lb.toClient[r.To] = append(lb.toClient[r.To], r.Msg)
				}
			}

			// Client 1's first CatchUp dies with the connection.
			resume(1)
			if tc.batch {
				srv2.sequence(srv2.recs[1], &wire.Batch{InstalledUpTo: srv2.Installed()})
			}
			lb.toClient[1] = nil
			srv2.UnregisterClient(1) // the transport's leave event

			// The retry presents the same LastBatchSeq as the lost one;
			// client 1's action re-commits first, then client 2's.
			resume(1)
			lb.drain()
			resume(2)
			lb.drain()
			if m := srv2.Metrics(); m.ResumesSnapshot != 3 || m.ResumesSuffix != 0 || m.ResumesRejected != 0 {
				t.Fatalf("resumes: %d snapshot, %d suffix, %d rejected; want 3, 0, 0",
					m.ResumesSnapshot, m.ResumesSuffix, m.ResumesRejected)
			}
			lb.requireNoViolations()
			for _, cid := range lb.order {
				if n := lb.clients[cid].QueueLen(); n != 0 {
					t.Fatalf("client %d still has %d in-flight actions", cid, n)
				}
			}

			oracle := oracletest.Replay(init, history, srv2.History())
			if !srv2.Authoritative().Equal(oracle.Final()) {
				t.Fatal("restarted authoritative state diverged from the stitched serial oracle")
			}
			for _, cid := range lb.order {
				oracle.CheckStable(t, fmt.Sprintf("client %d", cid), lb.clients[cid].Stable())
			}

			// Having applied a batch of this boot, client 1 resumes by
			// suffix again.
			srv2.UnregisterClient(1)
			resume(1)
			if m := srv2.Metrics(); m.ResumesSuffix != 1 {
				t.Fatalf("resume after client 1 applied this boot's batch: %d suffix, want 1", m.ResumesSuffix)
			}
			lb.drain()
			lb.requireNoViolations()
		})
	}
}
