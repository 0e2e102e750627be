package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
	"seve/internal/world"
)

// batchFrame builds a pooled push-batch frame with the given sequencing,
// plus the delivery metadata the engine would attach.
func batchFrame(seq uint64, fp ...world.ObjectID) (*wire.Frame, core.Delivery) {
	f := wire.NewFrame(&wire.Batch{Push: true, InstalledUpTo: seq, ClientSeq: seq})
	return f, core.Delivery{Class: core.DeliveryBatch, Footprint: fp, Epoch: seq}
}

func popBytes(t *testing.T, q *SendQueue) []byte {
	t.Helper()
	var buf bytes.Buffer
	for {
		frames := q.PopAll(nil, 1<<30)
		if len(frames) == 0 {
			return buf.Bytes()
		}
		for _, f := range frames {
			buf.Write(f.Bytes())
			f.Release()
		}
	}
}

// TestSendQueueKeepUpFIFO: under capacity the queue is a byte-preserving
// FIFO whether or not superseding is armed — the equivalence invariant's
// queue-level half.
func TestSendQueueKeepUpFIFO(t *testing.T) {
	for _, sup := range []bool{false, true} {
		var ctrs DeliveryCounters
		q := NewSendQueue(8, sup, &ctrs)
		var want bytes.Buffer
		for seq := uint64(1); seq <= 5; seq++ {
			f, d := batchFrame(seq, world.ObjectID(seq))
			want.Write(f.Bytes())
			if v := q.Enqueue(f, d); v != Enqueued {
				t.Fatalf("sup=%v seq=%d: verdict %v, want Enqueued", sup, seq, v)
			}
		}
		select {
		case <-q.Notify():
		default:
			t.Fatalf("sup=%v: no notify after enqueues", sup)
		}
		if got := popBytes(t, q); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("sup=%v: popped bytes diverge from FIFO order", sup)
		}
		if n := ctrs.Superseded.Load() + ctrs.Coalesced.Load() + ctrs.Drops.Load(); n != 0 {
			t.Fatalf("sup=%v: counters moved on a keep-up client: %d", sup, n)
		}
		q.Close()
	}
}

// TestSendQueueDropMode: without superseding a full queue drops the
// incoming frame and counts it — the historical behavior.
func TestSendQueueDropMode(t *testing.T) {
	var ctrs DeliveryCounters
	q := NewSendQueue(2, false, &ctrs)
	for seq := uint64(1); seq <= 2; seq++ {
		f, d := batchFrame(seq)
		q.Enqueue(f, d)
	}
	f, d := batchFrame(3)
	if v := q.Enqueue(f, d); v != Dropped {
		t.Fatalf("verdict %v, want Dropped", v)
	}
	if got := ctrs.Drops.Load(); got != 1 {
		t.Fatalf("Drops = %d, want 1", got)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after drop, want 2", q.Len())
	}
	q.Close()
}

// TestSendQueueCoalesceAtCap: a contiguous batch merges into the
// undelivered tail in place; the merged frame decodes as one batch
// covering both sequence numbers.
func TestSendQueueCoalesceAtCap(t *testing.T) {
	var ctrs DeliveryCounters
	q := NewSendQueue(2, true, &ctrs)
	for seq := uint64(1); seq <= 2; seq++ {
		f, d := batchFrame(seq, world.ObjectID(seq))
		q.Enqueue(f, d)
	}
	f, d := batchFrame(3, world.ObjectID(9))
	if v := q.Enqueue(f, d); v != Coalesced {
		t.Fatalf("verdict %v, want Coalesced", v)
	}
	if got := ctrs.Coalesced.Load(); got != 1 {
		t.Fatalf("Coalesced = %d, want 1", got)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after coalesce, want 2", q.Len())
	}
	// The second frame arrived while one was already queued, so its
	// footprint is stale; the first was the head with no backlog.
	if got := q.StaleObjects(); got != 2 {
		t.Fatalf("StaleObjects = %d, want 2 (objects 2 and 9)", got)
	}

	frames := q.PopAll(nil, 1<<30)
	if len(frames) != 2 {
		t.Fatalf("popped %d frames, want 2", len(frames))
	}
	m, err := wire.ReadFrame(bytes.NewReader(frames[1].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mb := m.(*wire.Batch)
	if mb.ClientSeq != 3 || mb.CoversFrom != 2 {
		t.Fatalf("merged batch seq=%d covers=%d, want 3 covering 2", mb.ClientSeq, mb.CoversFrom)
	}
	for _, f := range frames {
		f.Release()
	}
	if got := q.StaleObjects(); got != 0 {
		t.Fatalf("StaleObjects = %d after drain, want 0", got)
	}
	q.Close()
}

// TestSendQueueSnapshotEscalation walks the full ladder: an unmergeable
// frame at capacity sheds and requests a snapshot, further supersedable
// frames are discarded under the pending request, ordered frames still
// get through, and the snapshot itself replaces everything supersedable.
func TestSendQueueSnapshotEscalation(t *testing.T) {
	var ctrs DeliveryCounters
	q := NewSendQueue(2, true, &ctrs)
	// Two covered-drop notices: not batches, so the coalesce rung refuses.
	for i := 0; i < 2; i++ {
		f := wire.NewFrame(&wire.Drop{})
		q.Enqueue(f, core.Delivery{Class: core.DeliveryCovered})
	}
	f, d := batchFrame(1)
	if v := q.Enqueue(f, d); v != NeedSnapshot {
		t.Fatalf("verdict %v, want NeedSnapshot", v)
	}
	// Under the pending request supersedable frames are discarded...
	f, d = batchFrame(2)
	if v := q.Enqueue(f, d); v != NeedSnapshot {
		t.Fatalf("discard verdict %v, want NeedSnapshot", v)
	}
	if got := ctrs.Superseded.Load(); got != 2 {
		t.Fatalf("Superseded = %d after two sheds, want 2", got)
	}
	// ...but an ordered control frame is appended past the cap.
	ord := wire.NewFrame(&wire.CatchUp{OK: true})
	if v := q.Enqueue(ord, core.Delivery{Class: core.DeliveryOrdered}); v != Enqueued {
		t.Fatalf("ordered verdict %v, want Enqueued", v)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d with ordered overflow, want 3", q.Len())
	}

	// The snapshot replaces both covered frames, keeps the ordered one,
	// and clears the pending request.
	snapBody := &wire.CatchUp{OK: true, Snapshot: true, NextBatchSeq: 7}
	snap := wire.NewFrame(snapBody)
	v := q.Enqueue(snap, core.Delivery{Class: core.DeliverySnapshot, Epoch: 7})
	if v != Enqueued {
		t.Fatalf("snapshot verdict %v, want Enqueued", v)
	}
	if got := ctrs.Superseded.Load(); got != 4 {
		t.Fatalf("Superseded = %d after replacement, want 4", got)
	}
	frames := q.PopAll(nil, 1<<30)
	if len(frames) != 2 {
		t.Fatalf("popped %d frames after replacement, want ordered+snapshot", len(frames))
	}
	last, err := wire.ReadFrame(bytes.NewReader(frames[1].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cu, ok := last.(*wire.CatchUp); !ok || !cu.Snapshot || cu.NextBatchSeq != 7 {
		t.Fatalf("tail frame is not the snapshot: %#v", last)
	}
	for _, f := range frames {
		f.Release()
	}

	// With the request cleared and room available, delivery resumes FIFO.
	f, d = batchFrame(7)
	if v := q.Enqueue(f, d); v != Enqueued {
		t.Fatalf("post-snapshot verdict %v, want Enqueued", v)
	}
	q.Close()
}

// TestSendQueuePopAllBudget: the byte budget splits a backlog across
// writes without losing frames, always making progress.
func TestSendQueuePopAllBudget(t *testing.T) {
	var ctrs DeliveryCounters
	q := NewSendQueue(8, true, &ctrs)
	var sizes []int
	for seq := uint64(1); seq <= 4; seq++ {
		f, d := batchFrame(seq)
		sizes = append(sizes, f.Len())
		q.Enqueue(f, d)
	}
	// Budget fits exactly two frames.
	frames := q.PopAll(nil, sizes[0]+sizes[1])
	if len(frames) != 2 {
		t.Fatalf("popped %d frames under budget, want 2", len(frames))
	}
	for _, f := range frames {
		f.Release()
	}
	// The cut must have re-armed the notify.
	select {
	case <-q.Notify():
	default:
		t.Fatal("no notify re-arm after a budget-cut PopAll")
	}
	// A budget smaller than one frame still takes one.
	frames = q.PopAll(nil, 1)
	if len(frames) != 1 {
		t.Fatalf("popped %d frames with a tiny budget, want 1", len(frames))
	}
	frames[0].Release()
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	q.Close()
}

// TestSendQueueClose: close releases the backlog, later enqueues are
// self-releasing no-ops, and a second close is harmless. Release panics
// on a double-free, so running clean IS the assertion.
func TestSendQueueClose(t *testing.T) {
	var ctrs DeliveryCounters
	q := NewSendQueue(8, true, &ctrs)
	for seq := uint64(1); seq <= 3; seq++ {
		f, d := batchFrame(seq)
		q.Enqueue(f, d)
	}
	q.Close()
	if !q.IsClosed() {
		t.Fatal("IsClosed false after Close")
	}
	f, d := batchFrame(4)
	if v := q.Enqueue(f, d); v != Closed {
		t.Fatalf("verdict %v after close, want Closed", v)
	}
	if frames := q.PopAll(nil, 1<<30); len(frames) != 0 {
		t.Fatalf("PopAll returned %d frames after close", len(frames))
	}
	q.Close()
}

// TestSendQueueConcurrentRace drives enqueue, pop, and close from
// separate goroutines. The pool sentinels turn any double-release or
// use-after-free into a panic, and -race covers the ordering; the test
// asserts the conservation law the counters must obey: every frame is
// accounted exactly once.
func TestSendQueueConcurrentRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		var ctrs DeliveryCounters
		q := NewSendQueue(4, true, &ctrs)
		const producers = 3
		const perProducer = 200
		var enqueued, coalesced, popped int64
		var mu sync.Mutex
		var wg sync.WaitGroup

		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					var f *wire.Frame
					var d core.Delivery
					switch {
					case i%31 == 30:
						f = wire.NewFrame(&wire.CatchUp{OK: true, Snapshot: true})
						d = core.Delivery{Class: core.DeliverySnapshot}
					case i%7 == 6:
						f = wire.NewFrame(&wire.Drop{})
						d = core.Delivery{Class: core.DeliveryCovered}
					default:
						f, d = batchFrame(uint64(p*perProducer + i + 1))
					}
					v := q.Enqueue(f, d)
					mu.Lock()
					switch v {
					case Enqueued:
						enqueued++
					case Coalesced:
						coalesced++
					}
					mu.Unlock()
				}
			}(p)
		}

		popDone := make(chan struct{})
		go func() {
			defer close(popDone)
			var frames []*wire.Frame
			for {
				select {
				case <-q.Notify():
				default:
					if q.IsClosed() {
						return
					}
				}
				frames = q.PopAll(frames[:0], 16<<10)
				if len(frames) == 0 && q.IsClosed() {
					return
				}
				for _, f := range frames {
					_ = f.Bytes()
					f.Release()
					mu.Lock()
					popped++
					mu.Unlock()
				}
			}
		}()

		wg.Wait()
		// Even rounds close immediately so teardown races the popper's
		// drain; odd rounds let the popper drain the tail first.
		if round%2 == 1 {
			for q.Len() > 0 {
				runtime.Gosched()
			}
		}
		q.Close()
		<-popDone

		// Conservation: every Enqueued frame was either popped (and
		// released by the popper), replaced by a snapshot or coalesce
		// (released in place, counted), or released by Close.
		mu.Lock()
		if popped > enqueued {
			t.Fatalf("round %d: popped %d frames but only %d were enqueued", round, popped, enqueued)
		}
		mu.Unlock()
	}
}

// TestSendQueueStaleGauge: footprints only count while a backlog exists,
// the union deduplicates, and draining resets the gauge but not the
// shared high-water mark.
func TestSendQueueStaleGauge(t *testing.T) {
	var ctrs DeliveryCounters
	q := NewSendQueue(8, true, &ctrs)
	f, d := batchFrame(1, 1, 2)
	q.Enqueue(f, d) // head of line: not stale
	if got := q.StaleObjects(); got != 0 {
		t.Fatalf("StaleObjects = %d with no backlog, want 0", got)
	}
	f, d = batchFrame(2, 2, 3)
	q.Enqueue(f, d)
	f, d = batchFrame(3, 5)
	q.Enqueue(f, d)
	if got := q.StaleObjects(); got != 3 {
		t.Fatalf("StaleObjects = %d, want 3 (2,3,5)", got)
	}
	if got := ctrs.MaxStale.Load(); got != 3 {
		t.Fatalf("MaxStale = %d, want 3", got)
	}
	popBytes(t, q)
	if got := q.StaleObjects(); got != 0 {
		t.Fatalf("StaleObjects = %d after drain, want 0", got)
	}
	if got := ctrs.MaxStale.Load(); got != 3 {
		t.Fatalf("MaxStale high-water = %d after drain, want 3", got)
	}
	q.Close()
}

// TestSendQueueOrderedNeverShed states the superseding queue's safety
// contract (DESIGN.md §13, UQP arXiv:1111.1628) as a property over
// seeded random Enqueue/PopAll sequences of all four delivery classes:
// every DeliveryOrdered frame an open, unpoisoned queue is handed is
// accepted, then popped exactly once, byte-identical, in arrival order;
// only DeliveryBatch frames are ever merged; Close is the one legal
// Ordered shed. Each frame has the type its class admits (Enqueue asserts
// the table) and is numbered off one counter (classFrame, frameSeqs).
func TestSendQueueOrderedNeverShed(t *testing.T) {
	type sent struct {
		class  core.DeliveryClass
		bytes  []byte
		popped bool
	}
	for _, limit := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var ctrs DeliveryCounters
			q := NewSendQueue(limit, true, &ctrs)
			frames := map[uint64]*sent{} // by ClientSeq
			var owed []uint64            // accepted Ordered frames not yet popped, arrival order
			var seq, lastPopped uint64
			poisoned := false
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("limit=%d seed=%d seq=%d: "+format, append([]any{limit, seed, seq}, args...)...)
			}

			pop := func(maxBytes int) int {
				popped := q.PopAll(nil, maxBytes)
				for _, f := range popped {
					msg, err := wire.ReadFrame(bytes.NewReader(f.Bytes()))
					if err != nil {
						fail("popped frame does not decode: %v", err)
					}
					from, to := frameSeqs(msg)
					if to <= lastPopped {
						fail("frame %d popped after frame %d", to, lastPopped)
					}
					lastPopped = to
					for n := from; n <= to; n++ {
						fr := frames[n]
						if fr == nil || fr.popped {
							fail("frame %d popped twice or never enqueued", n)
						}
						fr.popped = true
						if from != to && fr.class != core.DeliveryBatch {
							fail("frame %d of class %d was merged into [%d,%d]", n, fr.class, from, to)
						}
					}
					if fr := frames[to]; from == to && !bytes.Equal(fr.bytes, f.Bytes()) {
						fail("frame %d popped with different bytes", to)
					}
					if len(owed) > 0 && to >= owed[0] {
						if to > owed[0] {
							fail("ordered frame %d was accepted and skipped: frame %d popped first", owed[0], to)
						}
						owed = owed[1:]
					}
					f.Release()
				}
				return len(popped)
			}

			for op := 0; op < 200; op++ {
				switch r := rng.Intn(100); {
				case r < 70:
					seq++
					class := []core.DeliveryClass{
						core.DeliveryBatch, core.DeliveryBatch, core.DeliveryBatch, core.DeliveryOrdered,
						core.DeliveryOrdered, core.DeliveryCovered, core.DeliverySnapshot,
					}[rng.Intn(7)]
					f := wire.NewFrame(classFrame(class, seq))
					frames[seq] = &sent{class: class, bytes: bytes.Clone(f.Bytes())}
					v := q.Enqueue(f, core.Delivery{Class: class, Epoch: seq})
					switch {
					case poisoned && v != Closed:
						fail("poisoned queue answered %v, want Closed", v)
					case !poisoned && class == core.DeliveryOrdered && v != Enqueued:
						fail("ordered frame shed: verdict %v, want Enqueued", v)
					case !poisoned && class == core.DeliveryOrdered:
						owed = append(owed, seq)
					}
				case r < 97:
					pop([]int{1, 64, 1 << 30}[rng.Intn(3)])
				case !poisoned:
					q.PoisonAfterDrain()
					poisoned = true
				}
			}

			if seed%2 == 0 {
				// Close sheds whatever is queued, Ordered included.
				q.Close()
				if n := pop(1 << 30); n != 0 {
					fail("closed queue popped %d frames", n)
				}
				continue
			}
			for pop(1<<30) > 0 {
			}
			if len(owed) > 0 {
				fail("ordered frames %v were accepted and never delivered", owed)
			}
			q.Close()
		}
	}
}

// classFrame builds a frame body of the type class admits, numbered seq.
func classFrame(class core.DeliveryClass, seq uint64) wire.Msg {
	switch class {
	case core.DeliveryBatch:
		return &wire.Batch{Push: true, InstalledUpTo: seq, ClientSeq: seq}
	case core.DeliveryCovered:
		return &wire.Drop{ActID: action.ID{Seq: uint32(seq)}}
	case core.DeliverySnapshot:
		return &wire.CatchUp{OK: true, Snapshot: true, NextBatchSeq: seq}
	}
	return &wire.CatchUp{OK: true, InstalledUpTo: seq}
}

// frameSeqs reads back the numbers a popped classFrame carries: one, or
// the range a coalesced batch covers.
func frameSeqs(msg wire.Msg) (from, to uint64) {
	switch m := msg.(type) {
	case *wire.Batch:
		if m.CoversFrom != 0 {
			return m.CoversFrom, m.ClientSeq
		}
		return m.ClientSeq, m.ClientSeq
	case *wire.Drop:
		return uint64(m.ActID.Seq), uint64(m.ActID.Seq)
	case *wire.CatchUp:
		if m.Snapshot {
			return m.NextBatchSeq, m.NextBatchSeq
		}
		return m.InstalledUpTo, m.InstalledUpTo
	}
	panic(fmt.Sprintf("unexpected frame %T", msg))
}
