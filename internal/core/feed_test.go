package core

import (
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
	retained map[action.ClientID]int
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
	if j.retained == nil {
		j.retained = make(map[action.ClientID]int)
	}
	j.retained[id]++
}

// TestJournalFeedEmitsGroups pins the feed contract: one contiguous
// group per install pass in serial order, session mints journaled with
// the registration, retained batches mirrored, and a nil SetJournal
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
			if r.Origin != 1 || r.Lane != -1 {
				t.Fatalf("group %d record %+v: want Origin 1, Lane -1 (unsharded)", gi, r)
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
	if j.retained[1] == 0 {
		t.Fatal("no retained batches journaled for client 1")
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
// return for lb's server: sessions keep their tokens and mint order,
// dedup floors are recomputed from the history prefix, and each
// session's retained window keeps only its clean prefix — batches whose
// every envelope and install marker is at or below the floor — exactly
// the keep-or-drop rule the shadow applies.
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
		for _, b := range sess.retained {
			clean := b.InstalledUpTo <= floor
			for _, env := range b.Envs {
				clean = clean && env.Seq <= floor
			}
			if !clean {
				break
			}
			sr.Retained = append(sr.Retained, b)
			sr.LastSeq = b.ClientSeq
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
// the re-issued position must converge to the serial oracle.
func TestRestartBootFence(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.ResumeWindow = 8
	init := initWorld(6)
	lb := newLoopback(t, cfg, init, 2)

	// Warm-up: both clients commit one action over full connectivity.
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

	// Both clients resume against the restarted server.
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

// TestFenceBootSuffixRollsBackProvisional unit-tests the suffix branch
// of the fence — reachable when a boot change arrives on a non-snapshot
// verdict — directly: the provisional commit above the floor is
// revoked, ζCS is truncated back to the floor, and the action is
// re-queued with its optimistic result rebuilt on the rolled-back
// state.
func TestFenceBootSuffixRollsBackProvisional(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.ResumeWindow = 4
	init := initWorld(3)
	lb := newLoopback(t, cfg, init, 1)

	lb.submit(1, &testAction{rs: world.IDSet{1}, ws: world.IDSet{1}, delta: 1})
	lb.drain()
	lb.submit(1, &testAction{rs: world.IDSet{1, 2}, ws: world.IDSet{2}, delta: 2})
	for lb.stepServer() {
	}
	for lb.stepClient(1) {
	}

	c := lb.clients[1]
	if len(c.installPending) != 1 || c.installPending[0].seq != 2 {
		t.Fatalf("installPending %+v, want the provisional commit at seq 2", c.installPending)
	}
	if _, seq, _ := c.cs.Latest(2); seq != 2 {
		t.Fatalf("ζCS object 2 latest version %d, want the provisional write at 2", seq)
	}

	var out ClientOutput
	c.fenceBoot(&wire.CatchUp{OK: true, Boot: 1, BootFloor: 1}, &out)

	if len(out.Revoked) != 1 || out.Revoked[0].Seq != 2 {
		t.Fatalf("revoked %+v, want the seq-2 commit withdrawn", out.Revoked)
	}
	if len(c.installPending) != 0 {
		t.Fatalf("installPending not cleared: %+v", c.installPending)
	}
	if c.QueueLen() != 1 {
		t.Fatalf("queue length %d, want the revoked action re-queued", c.QueueLen())
	}
	if v, seq, ok := c.cs.Latest(2); !ok || seq > 1 || v[0] != 2 {
		t.Fatalf("ζCS object 2 after truncation: v=%v seq=%d ok=%v, want the initial value at or below the floor", v, seq, ok)
	}
	if v, ok := c.Optimistic().Get(2); !ok || v[0] == 2 {
		t.Fatalf("ζCO object 2 = %v, want the re-queued action's optimistic write on top of the rollback", v)
	}
}
