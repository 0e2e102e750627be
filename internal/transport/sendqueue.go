package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"seve/internal/core"
	"seve/internal/wire"
	"seve/internal/world"
)

// SendQueue is the per-client delivery queue behind the server's writer
// pump: an updatable queue in the UQP sense (arXiv:1111.1628) — when a
// newer update is enqueued behind stale undelivered ones and the queue
// is full, the stale content is replaced in place instead of appended
// or dropped. DESIGN.md §13 documents the supersession rules and their
// soundness.
//
// While the queue has room it is a plain FIFO: a client that keeps up
// receives the byte-identical stream a non-superseding server would
// send (TestSupersedingEquivalence pins this). Only at capacity does
// the escalation ladder engage, per the frame's core.DeliveryClass:
//
//  1. A DeliveryBatch frame contiguous with a DeliveryBatch tail merges
//     into it in place (wire.CoalesceFrames) — same bytes the client
//     would have applied, one frame.
//  2. Otherwise the frame is released and the queue requests a
//     blind-write snapshot catch-up (Enqueue returns NeedSnapshot; the
//     dispatcher calls core.Superseder.SnapshotCatchUp). Until the
//     snapshot arrives, further supersedable frames are discarded — the
//     snapshot covers their content by construction.
//  3. The snapshot's own DeliverySnapshot frame releases and replaces
//     every supersedable frame still queued — the literal UQP
//     replace-in-place.
//
// DeliveryOrdered frames are never superseded, merged, or (in
// superseding mode) dropped: they carry session control flow and may
// exceed the capacity bound.
//
// Without superseding (ResumeWindow 0, HybridRelay, or an engine that
// cannot snapshot) a full queue drops the incoming frame, the pre-§13
// behavior.
//
// Enqueue consumes the caller's frame reference in every outcome;
// popped frames transfer their reference to the popper. All methods are
// safe for concurrent use; the intended shape is one enqueuer (the
// engine goroutine's dispatch) and one popper (the connection's writer
// pump).
type SendQueue struct {
	mu    sync.Mutex
	items []queuedFrame
	limit int
	// sup enables the superseding ladder; false means bounded FIFO with
	// drops.
	sup      bool
	closed   bool
	wantSnap bool
	// poisoned marks the queue for disconnect-after-drain (integrity
	// quarantine, DESIGN.md §16): frames enqueued before the poison —
	// the Quarantine verdict among them — still deliver, later enqueues
	// are refused, and the writer pump hangs the connection up once the
	// queue runs dry.
	poisoned bool
	// stale accumulates the covered-object footprints of frames enqueued
	// while the client was already behind (≥1 undelivered frame). It
	// resets when the queue drains — the client caught up.
	stale  map[world.ObjectID]struct{}
	notify chan struct{}
	ctrs   *DeliveryCounters
}

type queuedFrame struct {
	f *wire.Frame
	d core.Delivery
}

// Verdict is Enqueue's outcome.
type Verdict int

const (
	// Enqueued: appended (or, for a snapshot, replaced the queue content).
	Enqueued Verdict = iota
	// Coalesced: merged into the undelivered tail frame in place.
	Coalesced
	// Dropped: released at capacity (non-superseding mode only).
	Dropped
	// NeedSnapshot: released at capacity; the caller owes the client a
	// core.Superseder.SnapshotCatchUp to rebuild what the queue shed.
	NeedSnapshot
	// Closed: released because the queue is closed.
	Closed
)

// DeliveryCounters aggregates supersession activity across every queue
// sharing them. Shared and atomic so the totals survive disconnects and
// are readable without stopping the pumps.
type DeliveryCounters struct {
	// Superseded counts frames released undelivered because newer
	// content replaced them (snapshot replacement, coalesce inputs do
	// not count — their bytes still arrive — and post-request discards).
	Superseded atomic.Int64
	// Coalesced counts in-place merges of contiguous batch frames.
	Coalesced atomic.Int64
	// Drops counts frames discarded at capacity without replacement
	// (non-superseding mode) — the pre-§13 writeQueueDrops.
	Drops atomic.Int64
	// MaxStale gauges the largest stale-footprint size any queue
	// accumulated (see SendQueue.StaleObjects).
	MaxStale atomic.Int64
}

func (c *DeliveryCounters) noteStale(n int) {
	for {
		cur := c.MaxStale.Load()
		if int64(n) <= cur || c.MaxStale.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// maxCoalescedFrame caps the size an in-queue merge may produce, so
// replacement cannot grow a frame past what the buffer pool will
// recycle (wire's pooling cap).
const maxCoalescedFrame = 1 << 20

// NewSendQueue returns a queue bounded at limit frames, superseding
// when sup is set, charging activity to ctrs (which must be non-nil and
// may be shared across queues).
func NewSendQueue(limit int, sup bool, ctrs *DeliveryCounters) *SendQueue {
	return &SendQueue{
		limit:  limit,
		sup:    sup,
		stale:  make(map[world.ObjectID]struct{}),
		notify: make(chan struct{}, 1),
		ctrs:   ctrs,
	}
}

// Notify returns the channel the queue signals (non-blocking, buffered)
// whenever frames become available or the queue closes.
func (q *SendQueue) Notify() <-chan struct{} { return q.notify }

// Len reports the number of queued frames.
func (q *SendQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// StaleObjects reports the size of the current stale footprint: how
// many distinct objects have updates sitting undelivered behind a
// backlog. Zero for a client that is keeping up.
func (q *SendQueue) StaleObjects() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.stale)
}

// IsClosed reports whether Close ran.
func (q *SendQueue) IsClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// wake signals the notify channel without blocking.
func (q *SendQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// addStale charges d's footprint to the stale set. Caller holds q.mu;
// behind reports whether the client already had undelivered frames when
// this one arrived (a keep-up client is never stale).
func (q *SendQueue) addStale(d core.Delivery, behind bool) {
	if !behind || len(d.Footprint) == 0 {
		return
	}
	for _, id := range d.Footprint {
		q.stale[id] = struct{}{}
	}
	q.ctrs.noteStale(len(q.stale))
}

// Enqueue hands the queue one encoded frame and its supersession
// metadata, consuming the caller's reference whatever the verdict. A
// class the frame's type does not admit (classFits) is a programming
// error and panics.
func (q *SendQueue) Enqueue(f *wire.Frame, d core.Delivery) Verdict {
	if t := wire.MsgType(f.Bytes()[4]); !classFits(t, d.Class) {
		panic(fmt.Sprintf("transport: frame of type %d enqueued as delivery class %d", t, d.Class))
	}
	q.mu.Lock()
	if q.closed || q.poisoned {
		q.mu.Unlock()
		// A poisoned queue belongs to a quarantined client: nothing after
		// the verdict may deliver, ordered or not, so dropping here is the
		// contract — as it is once the queue is closed.
		f.Release()
		return Closed
	}
	behind := len(q.items) > 0

	if q.sup && d.Class == core.DeliverySnapshot {
		// Replace-in-place: everything supersedable below the snapshot is
		// stale by construction (the engine cleared its sent() bits and
		// the CatchUp replays drop notices), so release it all and let
		// the snapshot stand in.
		kept := q.items[:0]
		replaced := 0
		for _, it := range q.items {
			if it.d.Class == core.DeliveryOrdered {
				kept = append(kept, it)
				continue
			}
			it.f.Release()
			replaced++
		}
		for i := len(kept); i < len(q.items); i++ {
			q.items[i] = queuedFrame{}
		}
		q.items = append(kept, queuedFrame{f: f, d: d})
		q.wantSnap = false
		q.addStale(d, behind)
		q.mu.Unlock()
		if replaced > 0 {
			q.ctrs.Superseded.Add(int64(replaced))
		}
		q.wake()
		return Enqueued
	}

	if len(q.items) < q.limit || (q.sup && d.Class == core.DeliveryOrdered) {
		// Room (or an unshedable control frame): plain FIFO append — the
		// keep-up path, byte-identical to a non-superseding server.
		q.items = append(q.items, queuedFrame{f: f, d: d})
		q.addStale(d, behind)
		q.mu.Unlock()
		q.wake()
		return Enqueued
	}

	// At capacity.
	if !q.sup {
		q.mu.Unlock()
		// Non-superseding queues keep the pre-§13 drop-on-full contract:
		// the caller sees Dropped and owns recovery, and retaining
		// Ordered frames here would grow the queue without bound.
		f.Release()
		q.ctrs.Drops.Add(1)
		return Dropped
	}
	if q.wantSnap {
		// A snapshot covering everything shed here is already owed;
		// discarding is sound for the same reason the replacement is.
		q.mu.Unlock()
		f.Release()
		q.ctrs.Superseded.Add(1)
		return NeedSnapshot
	}
	if d.Class == core.DeliveryBatch && len(q.items) > 0 {
		tail := &q.items[len(q.items)-1]
		if tail.d.Class == core.DeliveryBatch && tail.f.Len()+f.Len() <= maxCoalescedFrame {
			if merged, ok := wire.CoalesceFrames(tail.f, f); ok {
				// Ownership transfer: the merged frame replaces the tail
				// slot; both inputs release their queue/caller references.
				tail.f.Release()
				f.Release()
				tail.f = merged
				tail.d.Epoch = d.Epoch
				tail.d.Footprint = unionFootprint(tail.d.Footprint, d.Footprint)
				q.addStale(d, behind)
				q.mu.Unlock()
				q.ctrs.Coalesced.Add(1)
				q.wake()
				return Coalesced
			}
		}
	}
	// Cannot supersede safely in place: shed the frame and escalate to
	// the Algorithm 6 snapshot rebuild.
	q.wantSnap = true
	q.mu.Unlock()
	f.Release()
	q.ctrs.Superseded.Add(1)
	return NeedSnapshot
}

// classFits is the frame-type → delivery-class table the engine derives
// every reply's class from (core's newReply), read off the type byte
// CoalesceFrames also reads: a Batch is DeliveryBatch, a Drop
// DeliveryCovered, a CatchUp DeliveryOrdered or — a snapshot, which the
// type byte alone cannot tell — DeliverySnapshot, and any other frame
// DeliveryOrdered.
func classFits(t wire.MsgType, c core.DeliveryClass) bool {
	switch t {
	case wire.TypeBatch:
		return c == core.DeliveryBatch
	case wire.TypeDrop:
		return c == core.DeliveryCovered
	case wire.TypeCatchUp:
		return c == core.DeliveryOrdered || c == core.DeliverySnapshot
	}
	return c == core.DeliveryOrdered
}

// unionFootprint merges two sorted deduplicated footprints.
func unionFootprint(a, b []world.ObjectID) []world.ObjectID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]world.ObjectID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// PopAll transfers queued frames to dst in delivery order, stopping
// once the accumulated frame bytes would exceed maxBytes (always taking
// at least one frame). The frames' references transfer to the caller.
// An empty result means the queue is drained — check IsClosed to
// distinguish shutdown.
func (q *SendQueue) PopAll(dst []*wire.Frame, maxBytes int) []*wire.Frame {
	q.mu.Lock()
	n, total := 0, 0
	for _, it := range q.items {
		if n > 0 && total+it.f.Len() > maxBytes {
			break
		}
		dst = append(dst, it.f)
		total += it.f.Len()
		n++
	}
	if n > 0 {
		rest := copy(q.items, q.items[n:])
		for i := rest; i < len(q.items); i++ {
			q.items[i] = queuedFrame{}
		}
		q.items = q.items[:rest]
	}
	if len(q.items) == 0 {
		clear(q.stale)
	} else {
		// Budget cut the drain short; re-arm so the pump comes back.
		q.wake()
	}
	q.mu.Unlock()
	return dst
}

// PoisonAfterDrain marks the queue for disconnect-after-drain: every
// frame already queued (the Quarantine verdict among them) still
// delivers, further Enqueues are refused like Closed, and once the
// queue runs dry Poisoned reports true — the writer pump's cue to
// close the connection. Idempotent.
func (q *SendQueue) PoisonAfterDrain() {
	q.mu.Lock()
	q.poisoned = true
	q.mu.Unlock()
	q.wake()
}

// Poisoned reports whether PoisonAfterDrain ran and the queue has
// drained — everything enqueued before the poison has been popped, so
// the connection may be closed without losing the verdict.
func (q *SendQueue) Poisoned() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.poisoned && len(q.items) == 0
}

// Close releases every queued frame and marks the queue dead: future
// Enqueues release their frames and report Closed, and the notify
// channel fires one last time so a blocked pump can exit. Idempotent.
func (q *SendQueue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	items := q.items
	q.items = nil
	q.mu.Unlock()
	for _, it := range items {
		it.f.Release()
	}
	q.wake()
}
