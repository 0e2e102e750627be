package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// runEngineWorkload drives one server through a seeded random workload —
// conflicting spatial submissions, First Bound push ticks, and full
// completion drains — and records every server→client message as
// "recipient:encoded-bytes". Two configurations that claim to be
// behaviorally identical must produce equal traces. hook, when non-nil,
// sets the server's unexported reference switches before any message.
func runEngineWorkload(t *testing.T, cfg Config, seed int64, hook func(*Server)) ([]string, *loopback) {
	return runShapedWorkload(t, cfg, seed, hook, workloadShape{})
}

// workloadShape overrides runEngineWorkload's geometry. masks are the
// clients' interest masks (nil: 24 clients subscribed to every class);
// act, called with the round, the submitter and its drawn read/write
// sets, returns the action to submit (nil: the sets placed uniformly in
// a 120×120 square with radius 5).
type workloadShape struct {
	masks map[int32]uint64
	act   func(rng *rand.Rand, round int, cid action.ClientID, a *testAction) action.Action
}

// engineRounds is the number of push rounds runShapedWorkload drives.
const engineRounds = 10

func runShapedWorkload(t *testing.T, cfg Config, seed int64, hook func(*Server), shape workloadShape) ([]string, *loopback) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nObjects, nClients, rounds = 60, 24, engineRounds
	init := initWorld(nObjects)
	var lb *loopback
	if shape.masks != nil {
		lb = newLoopbackMasks(t, cfg, init, shape.masks)
	} else {
		lb = newLoopback(t, cfg, init, nClients)
	}
	if hook != nil {
		hook(lb.srv)
	}

	var trace []string
	// Every reply is encoded twice: the reference per-recipient Encode
	// that the trace diff uses, and the pooled encode-once frame path the
	// transport uses. Any divergence between them fails immediately, so
	// the trace equality theorems of this file extend to the pooled
	// encoder over the full workload.
	var cache wire.EncodeCache
	t.Cleanup(cache.Reset)
	record := func(out ServerOutput) {
		lb.requireDelivery(out)
		for _, r := range out.Replies {
			enc := wire.Encode(r.Msg)
			f := wire.NewFrameCached(&cache, r.Msg)
			if fb := f.Bytes(); fb[4] != byte(r.Msg.Type()) || !bytes.Equal(fb[5:], enc) {
				t.Fatalf("pooled frame for %T to client %d diverges from per-recipient encoding",
					r.Msg, r.To)
			}
			f.Release()
			if _, ok := r.Msg.(*wire.Relay); ok {
				lb.relays++
			}
			trace = append(trace, fmt.Sprintf("%d:%x", r.To, enc))
			lb.toClient[r.To] = append(lb.toClient[r.To], r.Msg)
		}
	}
	// Deterministic pump that mirrors loopback.drain but routes every
	// server output through record.
	pump := func() {
		for {
			progress := false
			if len(lb.toServer) > 0 {
				fm := lb.toServer[0]
				lb.toServer = lb.toServer[1:]
				record(lb.srv.HandleMsg(fm.from, fm.msg, lb.nowMs))
				progress = true
			}
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

	// pumpServer processes pending server-bound messages without letting
	// clients reply, so submissions accumulate in the uncommitted queue
	// (no completions yet) and the subsequent Tick sees a real window.
	pumpServer := func() {
		for len(lb.toServer) > 0 {
			fm := lb.toServer[0]
			lb.toServer = lb.toServer[1:]
			record(lb.srv.HandleMsg(fm.from, fm.msg, lb.nowMs))
		}
	}

	for round := 0; round < rounds; round++ {
		lb.nowMs += cfg.PushIntervalMs()
		nSub := 3 + rng.Intn(5)
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
				// WS ⊆ RS: Tx.Write records written ids as reads too.
				rs:    world.NewIDSet(append(rs, ws...)...),
				ws:    world.NewIDSet(ws...),
				delta: float64(rng.Intn(100)),
			}
			if shape.act == nil {
				spatialAt(a, rng.Float64()*120, rng.Float64()*120, 5)
				lb.submit(cid, a)
			} else {
				lb.submitAction(cid, shape.act(rng, round, cid, a), func(id action.ID) { a.id = id })
			}
			// Interleave server processing with submissions half the time
			// so the queue depth at each analysis varies.
			if rng.Intn(2) == 0 {
				pumpServer()
			}
		}
		pumpServer()
		if cfg.Mode >= ModeFirstBound {
			record(lb.srv.Tick(lb.nowMs))
		}
		pump()
	}
	lb.requireNoViolations()
	lb.checkAgainstOracle(initWorld(nObjects))
	return trace, lb
}

func diffTraces(t *testing.T, name string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d messages vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: message %d differs:\n a: %s\n b: %s", name, i, a[i], b[i])
		}
	}
}

// TestTickParallelDeterminism holds the push scheduler to its contract:
// the byte stream of every server reply — closure batches, push batches,
// relays, ClientSeq stamps, blind-write ids — is identical whether
// planning runs sequentially or fanned over a worker pool, with every
// client its own recipient group or under HybridRelay's cells.
func TestTickParallelDeterminism(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		for _, workers := range []int{2, 4, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("hybrid=%v workers=%d seed=%d", hybrid, workers, seed)
				cfg := cfgFor(ModeFirstBound)
				cfg.HybridRelay = hybrid
				trSeq, lbSeq := runEngineWorkload(t, cfg, seed, func(s *Server) { s.pushWidth = 1 })
				trPar, lbPar := runEngineWorkload(t, cfg, seed, func(s *Server) { s.pushWidth = workers })
				diffTraces(t, name, trSeq, trPar)
				if !lbSeq.srv.Authoritative().Equal(lbPar.srv.Authoritative()) {
					t.Fatalf("%s: authoritative states diverged", name)
				}
				if lbPar.srv.stats.PushParallelTicks == 0 {
					t.Fatalf("%s: parallel path never exercised", name)
				}
				// Both legs plan through the entry grid; the pool reads it
				// concurrently.
				if lbSeq.srv.stats.PushGridLookups == 0 || lbPar.srv.stats.PushGridLookups == 0 {
					t.Fatalf("%s: a leg never consulted the entry grid", name)
				}
				// A mis-wired width would compare the pool with itself.
				if n := lbSeq.srv.stats.PushParallelTicks; n != 0 {
					t.Fatalf("%s: sequential leg fanned out %d ticks", name, n)
				}
				if hybrid == (lbPar.relays == 0) {
					t.Fatalf("%s: %d relays", name, lbPar.relays)
				}
			}
		}
	}
}

// TestClosureIndexEquivalence holds the reverse conflict index to its
// contract: the indexed Algorithm 6/7 walks produce byte-identical
// output to the full-queue scans they replace, including Information
// Bound drop decisions. The reference leg also plans pushes without the
// entry grid (TestPushGridEquivalence aims at the grid itself).
func TestClosureIndexEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeIncomplete, ModeFirstBound, ModeInfoBound} {
		for seed := int64(1); seed <= 3; seed++ {
			indexed := cfgFor(mode)
			if mode == ModeInfoBound {
				// Low enough that long spatial chains get dropped, so the
				// validity walk's early exit is exercised too.
				indexed.Threshold = 60
			}
			trIdx, lbIdx := runEngineWorkload(t, indexed, seed, nil)
			trFull, lbFull := runEngineWorkload(t, indexed, seed, func(s *Server) { s.fullScan = true })
			diffTraces(t, fmt.Sprintf("mode=%v seed=%d", mode, seed), trIdx, trFull)
			if lbIdx.srv.TotalDropped() != lbFull.srv.TotalDropped() {
				t.Fatalf("mode=%v seed=%d: drops %d (indexed) vs %d (full)",
					mode, seed, lbIdx.srv.TotalDropped(), lbFull.srv.TotalDropped())
			}
			if !lbIdx.srv.Authoritative().Equal(lbFull.srv.Authoritative()) {
				t.Fatalf("mode=%v seed=%d: authoritative states diverged", mode, seed)
			}
			// The index must actually be saving work, or the whole
			// apparatus is dead weight.
			st := lbIdx.srv.Metrics()
			if st.ScanSavedEntries == 0 {
				t.Fatalf("mode=%v seed=%d: index saved no scans", mode, seed)
			}
			// And the reference leg must have been the full scan, or the
			// index was compared with itself: addCandidates is the only
			// place that counts a lookup. (ScanSavedEntries is no use
			// here — a validity walk that exits early on a drop books a
			// saving without any index.)
			if st.IndexLookups == 0 {
				t.Fatalf("mode=%v seed=%d: indexed leg made no index lookups", mode, seed)
			}
			if n := lbFull.srv.Metrics().IndexLookups; n != 0 {
				t.Fatalf("mode=%v seed=%d: full-scan leg made %d index lookups", mode, seed, n)
			}
			if mode >= ModeFirstBound && st.PushGridLookups == 0 {
				t.Fatalf("mode=%v seed=%d: indexed leg never consulted the entry grid", mode, seed)
			}
			if n := lbFull.srv.Metrics().PushGridLookups; n != 0 {
				t.Fatalf("mode=%v seed=%d: full-scan leg made %d grid lookups", mode, seed, n)
			}
		}
	}
}

// TestQueueCompaction verifies the HandleCompletion memory fix: popping
// the queue head must eventually re-home the slice instead of pinning
// the dead prefix of the backing array forever.
func TestQueueCompaction(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	init := initWorld(8)
	lb := newLoopback(t, cfg, init, 2)
	for i := 0; i < 600; i++ {
		lb.submit(lb.order[i%2], &testAction{
			rs:    world.NewIDSet(world.ObjectID(1 + i%8)),
			ws:    world.NewIDSet(world.ObjectID(1 + i%8)),
			delta: 1,
		})
		lb.drain()
	}
	lb.requireNoViolations()
	st := lb.srv.Metrics()
	if st.QueueCompactions == 0 {
		t.Fatal("queue was never compacted")
	}
	if st.QueueLen != 0 {
		t.Fatalf("queue not drained: %d", st.QueueLen)
	}
	if st.Installed != uint64(st.TotalSubmitted-st.TotalDropped) {
		t.Fatalf("installed %d of %d", st.Installed, st.TotalSubmitted)
	}
	lb.checkAgainstOracle(initWorld(8))
}

// TestMetricsSnapshot sanity-checks the counters surfaced to operators.
func TestMetricsSnapshot(t *testing.T) {
	cfg := cfgFor(ModeInfoBound)
	_, lb := runEngineWorkload(t, cfg, 42, nil)
	st := lb.srv.Metrics()
	if st.TotalSubmitted == 0 || st.CompletionsTaken == 0 {
		t.Fatalf("protocol counters empty: %+v", st)
	}
	if st.InternedObjects == 0 || st.IndexLookups == 0 {
		t.Fatalf("index counters empty: %+v", st)
	}
	if st.TrackedClients != 24 {
		t.Fatalf("tracked clients = %d", st.TrackedClients)
	}
	if st.String() == "" {
		t.Fatal("empty rendering")
	}
}
