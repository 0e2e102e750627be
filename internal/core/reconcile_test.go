package core

import (
	"fmt"
	"math/rand"
	"testing"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// runReconcileWorkload drives a seeded random workload — concurrent
// writers over overlapping sets (so optimistic and stable evaluations
// disagree and Algorithm 3 runs), a low Information Bound threshold (so
// actions get dropped mid-queue), First Bound push ticks, and a
// randomized delivery schedule — and records every observable client
// output: messages to the server, peer forwards, commits with their
// stable results, local drops, violations, and a digest of ζCO after
// every handled message. Two configurations that claim identical client
// behaviour must produce equal traces. fullRollback puts every client on
// the literal Algorithm 3 reference path.
func runReconcileWorkload(t *testing.T, cfg Config, seed int64, fullRollback bool) ([]string, *loopback) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nObjects, nClients, rounds = 40, 12, 8
	init := initWorld(nObjects)
	lb := newLoopback(t, cfg, init, nClients)
	for _, c := range lb.clients {
		c.fullRollback = fullRollback
	}

	var trace []string
	// stepClient with full output recording; mirrors loopback.stepClient.
	step := func(cid action.ClientID) bool {
		q := lb.toClient[cid]
		if len(q) == 0 {
			return false
		}
		msg := q[0]
		lb.toClient[cid] = q[1:]
		out := lb.clients[cid].HandleMsg(msg)
		for _, m := range out.ToServer {
			trace = append(trace, fmt.Sprintf("c%d>s:%x", cid, wire.Encode(m)))
		}
		for _, p := range out.ToPeers {
			trace = append(trace, fmt.Sprintf("c%d>p%d:%x", cid, p.To, wire.Encode(p.Msg)))
		}
		for _, cm := range out.Commits {
			trace = append(trace, fmt.Sprintf("c%d:commit:%v@%d:rec=%v:%+v",
				cid, cm.ActID, cm.Seq, cm.Reconciled, cm.Res))
		}
		for _, d := range out.DroppedLocal {
			trace = append(trace, fmt.Sprintf("c%d:dropped:%v", cid, d))
		}
		for _, v := range out.Violations {
			trace = append(trace, fmt.Sprintf("c%d:violation:%s", cid, v))
		}
		trace = append(trace, fmt.Sprintf("c%d:co:%x", cid, lb.clients[cid].Optimistic().Digest()))
		lb.absorb(cid, out)
		return true
	}
	// Randomized but FIFO-per-link pump; the rng schedule is a function
	// of the seed and of queue lengths, which match between equivalent
	// runs until the first (reported) divergence.
	pump := func() {
		for {
			var choices []func() bool
			if len(lb.toServer) > 0 {
				choices = append(choices, lb.stepServer)
			}
			for _, cid := range lb.order {
				if len(lb.toClient[cid]) > 0 {
					cid := cid
					choices = append(choices, func() bool { return step(cid) })
				}
			}
			if len(choices) == 0 {
				return
			}
			choices[rng.Intn(len(choices))]()
		}
	}

	for round := 0; round < rounds; round++ {
		lb.nowMs += cfg.PushIntervalMs()
		nSub := 3 + rng.Intn(4)
		for i := 0; i < nSub; i++ {
			cid := lb.order[rng.Intn(len(lb.order))]
			rs := []world.ObjectID{world.ObjectID(1 + rng.Intn(nObjects))}
			for rng.Intn(2) == 0 {
				rs = append(rs, world.ObjectID(1+rng.Intn(nObjects)))
			}
			ws := []world.ObjectID{rs[0]}
			if rng.Intn(2) == 0 {
				ws = append(ws, world.ObjectID(1+rng.Intn(nObjects)))
			}
			a := &testAction{
				rs:    world.NewIDSet(append(rs, ws...)...),
				ws:    world.NewIDSet(ws...),
				delta: float64(rng.Intn(100)),
			}
			spatialAt(a, rng.Float64()*120, rng.Float64()*120, 5)
			lb.submit(cid, a)
			// Half the time let the server stamp the backlog before the
			// next submission so queue depths (and drop chains) vary.
			if rng.Intn(2) == 0 {
				for lb.stepServer() {
				}
			}
		}
		for lb.stepServer() {
		}
		if cfg.Mode >= ModeFirstBound {
			lb.tick()
		}
		pump()
	}
	lb.requireNoViolations()
	lb.checkAgainstOracle(initWorld(nObjects))
	return trace, lb
}

// TestReconcileEquivalence holds the incremental divergence-set
// reconciliation to its contract: every observable client behaviour —
// completion and forward bytes, commit results, reconciliation flags,
// the optimistic state after every message, and the final stable store —
// is identical to the literal Algorithm 3 full-rollback implementation,
// across drops, pushes, and out-of-order delivery.
func TestReconcileEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := cfgFor(ModeInfoBound)
		cfg.Threshold = 60 // low enough that long conflict chains get dropped

		trInc, lbInc := runReconcileWorkload(t, cfg, seed, false)
		trFull, lbFull := runReconcileWorkload(t, cfg, seed, true)
		diffTraces(t, fmt.Sprintf("seed=%d", seed), trInc, trFull)

		recs, copies, fullCopies := 0, 0, 0
		for _, cid := range lbInc.order {
			ci, cf := lbInc.clients[cid], lbFull.clients[cid]
			if !ci.Optimistic().Equal(cf.Optimistic()) {
				t.Fatalf("seed=%d client %d: optimistic states diverged", seed, cid)
			}
			if !ci.Stable().LatestState().Equal(cf.Stable().LatestState()) {
				t.Fatalf("seed=%d client %d: stable states diverged", seed, cid)
			}
			if vi, vf := ci.Stable().Versions(), cf.Stable().Versions(); vi != vf {
				t.Fatalf("seed=%d client %d: stable versions %d vs %d", seed, cid, vi, vf)
			}
			if ri, rf := ci.Reconciliations(), cf.Reconciliations(); ri != rf {
				t.Fatalf("seed=%d client %d: reconciliations %d vs %d", seed, cid, ri, rf)
			}
			recs += ci.Reconciliations()
			copies += ci.Metrics().ReconcileCopies
			fullCopies += cf.Metrics().ReconcileCopies
		}
		// The workload must actually exercise the machinery under test,
		// or the equivalence proof is vacuous.
		if recs == 0 {
			t.Fatalf("seed=%d: no reconciliations ran", seed)
		}
		if copies == 0 {
			t.Fatalf("seed=%d: incremental path copied nothing back", seed)
		}
		// Only the incremental path counts a copy: a reference fleet that
		// counted one was the incremental path compared with itself.
		if fullCopies != 0 {
			t.Fatalf("seed=%d: full-rollback fleet made %d incremental copies", seed, fullCopies)
		}
		if lbInc.srv.TotalDropped() == 0 {
			t.Fatalf("seed=%d: no Information Bound drops", seed)
		}
		if di, df := lbInc.srv.TotalDropped(), lbFull.srv.TotalDropped(); di != df {
			t.Fatalf("seed=%d: drops %d vs %d", seed, di, df)
		}
	}
}

// TestHandleDropReleasesQueueSlot verifies the queue-pinning fix: after
// an entry is removed from the middle of Q, the vacated tail slot of the
// backing array must be zeroed so the dropped action and its cloned
// optimistic result become collectible.
func TestHandleDropReleasesQueueSlot(t *testing.T) {
	c := NewClient(1, cfgFor(ModeInfoBound), initWorld(4))
	var ids []action.ID
	for i := 0; i < 3; i++ {
		a := &testAction{
			id:    c.NextActionID(),
			rs:    world.NewIDSet(world.ObjectID(1 + i)),
			ws:    world.NewIDSet(world.ObjectID(1 + i)),
			delta: 1,
		}
		ids = append(ids, a.id)
		c.Submit(a)
	}
	out := c.HandleDrop(&wire.Drop{ActID: ids[1]})
	if len(out.DroppedLocal) != 1 || out.DroppedLocal[0] != ids[1] {
		t.Fatalf("drop not acknowledged: %+v", out)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", out.Violations)
	}
	if len(c.queue) != 2 || c.queue[0].act.ID() != ids[0] || c.queue[1].act.ID() != ids[2] {
		t.Fatalf("queue after drop: %+v", c.queue)
	}
	// The slot the survivors shifted out of must not pin the old entry.
	if tail := c.queue[:cap(c.queue)][len(c.queue)]; tail.act != nil || tail.wsd != nil || tail.optimistic.Writes != nil {
		t.Fatalf("vacated queue slot still pins %+v", tail)
	}
}

// TestPendingBatchCap verifies the bounded out-of-order batch buffer:
// gaps buffer up to the cap, overflow drops the arriving batch with a
// violation and a counter bump, and filling the gap still drains
// everything that was buffered.
func TestPendingBatchCap(t *testing.T) {
	c := NewClient(1, cfgFor(ModeInfoBound), initWorld(8))
	c.maxPending = 2

	batch := func(seq uint64) *wire.Batch {
		return &wire.Batch{
			ClientSeq: seq,
			Push:      true,
			Envs: []action.Envelope{{
				Seq:    seq,
				Origin: 99,
				Act: &testAction{
					id:    action.ID{Client: 99, Seq: uint32(seq)},
					rs:    world.NewIDSet(1),
					ws:    world.NewIDSet(1),
					delta: float64(seq),
				},
			}},
		}
	}

	// Batches 3 and 4 arrive ahead of their turn and are buffered.
	for _, seq := range []uint64{3, 4} {
		if out := c.HandleBatch(batch(seq)); len(out.Applied) != 0 || len(out.Violations) != 0 {
			t.Fatalf("batch %d not buffered cleanly: %+v", seq, out)
		}
	}
	if st := c.Metrics(); st.BufferedBatches != 2 || st.DroppedBatches != 0 {
		t.Fatalf("after buffering: %+v", st)
	}
	// Batch 5 overflows the cap.
	out := c.HandleBatch(batch(5))
	if len(out.Violations) != 1 {
		t.Fatalf("overflow not reported: %+v", out)
	}
	if st := c.Metrics(); st.BufferedBatches != 2 || st.DroppedBatches != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	// A duplicate of an already-buffered sequence is not an overflow.
	if out := c.HandleBatch(batch(4)); len(out.Violations) != 0 {
		t.Fatalf("duplicate buffered batch dropped: %+v", out)
	}
	// Filling the gap drains 1 through 4 in order.
	if out := c.HandleBatch(batch(1)); len(out.Applied) != 1 {
		t.Fatalf("batch 1: %+v", out)
	}
	if out := c.HandleBatch(batch(2)); len(out.Applied) != 3 {
		t.Fatalf("gap fill should drain 2,3,4: %+v", out)
	}
	st := c.Metrics()
	if st.BufferedBatches != 0 || st.AppliedRemote != 4 || st.DroppedBatches != 1 {
		t.Fatalf("after drain: %+v", st)
	}
	// Each batch writes read+delta: 1→2→4→7→11 across seqs 1..4.
	if v, ok := c.Optimistic().Get(1); !ok || v[0] != 11 {
		t.Fatalf("object 1 = %v after drain", v)
	}
	// An unbounded buffer holds past any cap.
	cu := NewClient(1, cfgFor(ModeInfoBound), initWorld(8))
	cu.maxPending = -1
	for seq := uint64(2); seq <= uint64(2*DefaultMaxPendingBatches); seq += 2 {
		cu.HandleBatch(batch(seq))
	}
	if st := cu.Metrics(); st.DroppedBatches != 0 || st.BufferedBatches != DefaultMaxPendingBatches {
		t.Fatalf("unbounded buffer dropped batches: %+v", st)
	}
}

// TestHandleRelayFanOutEncodeOnce pins the property the transport's
// encode-once fan-out relies on: the peer forwards a relay schedules all
// share the inner batch's envelope slice, so an EncodeCache serializes
// the envelope section exactly once across the fan-out and every cached
// frame is byte-identical to an independent encoding.
func TestHandleRelayFanOutEncodeOnce(t *testing.T) {
	c := NewClient(1, cfgFor(ModeFirstBound), initWorld(8))
	inner := &wire.Batch{
		ClientSeq: 1,
		Push:      true,
		Envs: []action.Envelope{
			{Seq: 1, Origin: 99, Act: &testAction{
				id: action.ID{Client: 99, Seq: 1},
				rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 2,
			}},
			{Seq: 2, Origin: 99, Act: &testAction{
				id: action.ID{Client: 99, Seq: 2},
				rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 3,
			}},
		},
	}
	m := &wire.Relay{
		Targets:    []action.ClientID{1, 2, 3, 4, 5},
		TargetSeqs: []uint64{1, 7, 8, 9, 10},
		Inner:      inner,
	}
	out := c.HandleRelay(m)
	if len(out.ToPeers) != 4 {
		t.Fatalf("forwards = %d, want 4", len(out.ToPeers))
	}

	var cache wire.EncodeCache
	defer cache.Reset()
	for _, p := range out.ToPeers {
		ref := wire.Encode(p.Msg)
		f := wire.NewFrameCached(&cache, p.Msg)
		if fb := f.Bytes(); fb[4] != byte(p.Msg.Type()) || string(fb[5:]) != string(ref) {
			t.Fatalf("cached frame to client %d diverges from reference encoding", p.To)
		}
		f.Release()
		fwd := p.Msg.(*wire.Batch)
		if &fwd.Envs[0] != &inner.Envs[0] || len(fwd.Envs) != len(inner.Envs) {
			t.Fatalf("forward to client %d does not share the inner envelope slice", p.To)
		}
	}
	if cache.Hits() != uint64(len(out.ToPeers)-1) {
		t.Fatalf("cache hits = %d, want %d", cache.Hits(), len(out.ToPeers)-1)
	}
}

// TestOwnCommitSurvivesReconcile: an own action's stable result backs its
// commit report and its completion, and the reconciliation it triggers
// re-applies the rest of the queue through the scratch transaction the
// stable evaluation ran on. Both holders must still read the stable
// result afterwards, not what the re-apply wrote.
func TestOwnCommitSurvivesReconcile(t *testing.T) {
	c := NewClient(1, cfgFor(ModeIncomplete), initWorld(2))
	a1 := &testAction{id: action.ID{Client: 1, Seq: 1}, rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}
	a2 := &testAction{id: action.ID{Client: 1, Seq: 2}, rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10}
	c.Submit(a1) // optimistic: 1+1
	c.Submit(a2) // optimistic: 2+10
	// A remote action lands on object 1 first, so a1's stable value is
	// 101+1, not the 2 it was optimistic about.
	remote := &testAction{id: action.ID{Client: 2, Seq: 1}, rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 100}
	out := c.HandleBatch(&wire.Batch{ClientSeq: 1, Envs: []action.Envelope{
		{Seq: 1, Origin: 2, Act: remote}, {Seq: 2, Origin: 1, Act: a1}}})
	if len(out.Commits) != 1 || !out.Commits[0].Reconciled {
		t.Fatalf("commits %+v: want a1 committed with a reconciliation", out.Commits)
	}
	want := action.Result{OK: true, Writes: []world.Write{{ID: 1, Val: world.Value{102}}}}
	if got := out.Commits[0].Res; !got.Equal(want) {
		t.Fatalf("commit report holds %+v after the reconciliation, want %+v", got, want)
	}
	if len(out.ToServer) != 1 {
		t.Fatalf("%d messages to the server, want a1's completion", len(out.ToServer))
	}
	if got := out.ToServer[0].(*wire.Completion).Res; !got.Equal(want) {
		t.Fatalf("completion holds %+v after the reconciliation, want %+v", got, want)
	}
	if v, _ := c.Optimistic().Get(1); !v.Equal(world.Value{112}) {
		t.Fatalf("ζCO(1) = %v after re-applying a2, want [112]", v)
	}
}
