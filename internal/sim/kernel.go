// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, which
// makes every run fully reproducible for a fixed seed and schedule.
//
// The kernel substitutes for the paper's EMULab testbed: instead of 65
// physical machines exchanging messages over a 238 ms WAN, nodes are
// simulated single-core processors (see Proc) connected by simulated
// links (see package netsim).
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a virtual timestamp in milliseconds. The millisecond matches the
// resolution of the paper's Java System.currentTimeMillis measurements;
// fractional values allow sub-millisecond costs such as the 0.04 ms
// transitive-closure scans reported in Section V-B1.
type Time float64

// Millisecond is one virtual millisecond.
const Millisecond Time = 1

// Second is 1000 virtual milliseconds.
const Second Time = 1000

// Never is a sentinel time later than any reachable simulation instant.
const Never Time = Time(math.MaxFloat64)

// event is a scheduled callback. seq breaks ties so same-instant events run
// in scheduling order.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Kernel is a discrete-event simulator. The zero value is not ready for
// use; construct with NewKernel.
type Kernel struct {
	now     Time
	events  eventHeap
	seq     uint64
	stopped bool
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events not yet fired.
func (k *Kernel) Pending() int { return len(k.events) }

// At schedules fn to run at virtual time t. Scheduling in the past is a
// programming error and panics: it would silently reorder causality.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	heap.Push(&k.events, &event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d milliseconds from now. Negative delays panic.
func (k *Kernel) After(d Time, fn func()) {
	k.At(k.now+d, fn)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (k *Kernel) Step() bool {
	if k.stopped || len(k.events) == 0 {
		return false
	}
	ev := heap.Pop(&k.events).(*event)
	k.now = ev.at
	ev.fn()
	return true
}

// Run fires events until none remain or Stop is called. It returns the
// final virtual time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil fires events with timestamps at or before limit. Events beyond
// the limit remain queued; the clock is advanced to limit if the simulation
// would otherwise have stopped earlier. It returns the final virtual time.
func (k *Kernel) RunUntil(limit Time) Time {
	for !k.stopped && len(k.events) > 0 && k.events[0].at <= limit {
		k.Step()
	}
	if k.now < limit {
		k.now = limit
	}
	return k.now
}

// Stop halts Run and RunUntil after the current event returns. Pending
// events are retained; a subsequent Run resumes.
func (k *Kernel) Stop() { k.stopped = true }

// Resume clears a previous Stop.
func (k *Kernel) Resume() { k.stopped = false }
