package core

import (
	"sort"

	"seve/internal/world"
)

// This file holds the reverse conflict index behind the Algorithm 6/7
// walks (closure.go, infobound.go): for every object, the serial
// positions of the uncommitted queue entries that write it, plus the
// reusable per-walk scratch state. With the index, the walks visit only
// entries that can conflict with the chain set instead of scanning the
// whole uncommitted queue — the difference between O(queue) and
// O(conflicts) per analysis, which is what the paper's thin-server
// claim (Section V-B1, 0.04 ms per move) depends on at depth.
//
// Key invariant (established by the stamp and install passes): a
// segment's queue is a contiguous run of its own serial positions, so
// queue[i] has segment-seq == installed + 1 + uint64(i). Writer lists
// store segment seqs, which never change as the head of the queue
// installs; the conversion to a current queue index is one subtraction.

// segment is one partition of the uncommitted queue with its slice of
// the reverse conflict index: the global queue (embedded in Server,
// numbered by global Seq) or one shard lane's mirror of the entries it
// owns (Server.lanes, numbered by laneSeq; see pipeline.go). Enqueue,
// index, prune and pop-and-compact exist once, here, for both.
type segment struct {
	// queue holds the segment's uncommitted entries in serial order.
	queue []*entry
	// popped counts entries popped off the queue head since the backing
	// array was last compacted.
	popped int
	// nextSeq numbers the segment's accepted entries; installed is its
	// install watermark — the greatest j such that entries 1..j have all
	// been installed — in the same numbering.
	nextSeq   uint64
	installed uint64
	// writers is the reverse conflict index: writers[o] holds the segment
	// seqs (ascending) of the uncommitted entries whose write set contains
	// the object with dense index o. The lanes all hold the same table:
	// each object is written only by its owner lane's entries, so parallel
	// lane stamps touch disjoint rows, and a table per lane would multiply
	// the index's footprint by the lane count (growWriters).
	writers [][]uint64

	compactions       int
	writerCompactions int
}

// walkView is what an analysis walk reads of a segment: its queue, its
// index and its install watermark as they stood when the view was taken.
// Positions a walk takes and returns are indexes into the view's queue;
// the numbering is the segment's own — global Seqs for the global queue
// (the single-lane engine, cross-shard stamping, pushes, resume),
// laneSeqs for a lane segment (the router's partitioned epochs).
type walkView struct {
	queue   []*entry
	writers [][]uint64
	// installed is the view's install watermark in the view's numbering:
	// writer-list seqs at or below it are dead.
	installed uint64
}

func (g *segment) view() walkView {
	return walkView{queue: g.queue, writers: g.writers, installed: g.installed}
}

// push enqueues e at the segment's next serial position, which it
// returns, and records e's writes in the reverse conflict index.
func (g *segment) push(e *entry) uint64 {
	g.nextSeq++
	g.queue = append(g.queue, e)
	for _, o := range e.wsd {
		lst := g.writers[o]
		// Compact the dead prefix (seqs at or below the install point)
		// when it dominates the list; append is the only place a list
		// grows, so this amortizes to O(1) per write.
		if len(lst) > 16 && lst[0] <= g.installed {
			d := liveFrom(lst, g.installed)
			if 2*d >= len(lst) {
				lst = lst[:copy(lst, lst[d:])]
				g.writerCompactions++
			}
		}
		g.writers[o] = append(lst, g.nextSeq)
	}
	return g.nextSeq
}

// prune trims the writer lists of an entry the install watermark just
// passed. Objects written only by installed actions release their lists
// entirely; hot objects compact once the dead prefix dominates. Runs in
// the sequential install pass — the walks themselves never mutate the
// index, which keeps them safe on worker goroutines.
func (g *segment) prune(e *entry) {
	for _, o := range e.wsd {
		lst := g.writers[o]
		d := liveFrom(lst, g.installed)
		switch {
		case d == len(lst):
			g.writers[o] = lst[:0]
		case d > 16 && 2*d >= len(lst):
			g.writers[o] = lst[:copy(lst, lst[d:])]
			g.writerCompactions++
		}
	}
}

// queueCompactMin is the smallest dead prefix worth a compaction copy.
const queueCompactMin = 256

// pop drops the n installed entries at the queue head. Re-slicing alone
// would pin the popped prefix of the backing array for the life of the
// server (the nil-ed slots themselves); the live tail is copied to a
// fresh array once the dead prefix dominates.
func (g *segment) pop(n int) {
	clear(g.queue[:n])
	g.queue = g.queue[n:]
	g.popped += n
	if g.popped >= queueCompactMin && g.popped >= len(g.queue) {
		compacted := make([]*entry, len(g.queue))
		copy(compacted, g.queue)
		g.queue = compacted
		g.popped = 0
		g.compactions++
	}
}

// walkStats aggregates what one analysis walk cost. Walks run on worker
// goroutines during parallel pushes, so they accumulate into this value
// and the caller merges it into the server's counters sequentially
// (noteWalk).
type walkStats struct {
	// scanned counts queue entries actually examined (the quantity
	// charged as ServerOutput.QueueScanned).
	scanned int
	// lookups counts writer-list consultations.
	lookups int
	// baseline is what a full-queue walk would have examined, for the
	// scan-savings counter.
	baseline int
	// pushTests counts First Bound eligibility tests and gridLookups the
	// clients served from the entry grid (planPush only).
	pushTests, gridLookups int
}

// closureScratch is the reusable per-walk (and, during parallel pushes,
// per-worker) state. All of it is sized lazily and retained across
// calls, so steady-state walks allocate nothing beyond their outputs.
type closureScratch struct {
	// set is S, the transitive chain set, over dense object indices.
	set world.ScratchSet
	// seedPos marks the seed queue positions the walk must skip.
	seedPos world.ScratchSet
	// cand is the candidate bitmap over queue positions: bit j set means
	// position j writes an object that was in S while the walk was above
	// j. The walk clears every bit it pops, so the bitmap is all-zero
	// between walks (early exits sweep the remainder).
	cand []uint64
	// seeds buffers per-client push seed positions.
	seeds []int
	// mark flags accepted grid candidates by window ordinal (gridSeeds);
	// all-zero between uses.
	mark []uint64
	// memb buffers the final chain-set members.
	memb []uint32
	// objs buffers the materialized blind-write object ids.
	objs []world.ObjectID
}

func (sc *closureScratch) ensure(queueLen, internLen int) {
	words := (queueLen + 63) / 64
	if words > len(sc.cand) {
		sc.cand = append(sc.cand, make([]uint64, words+words/2-len(sc.cand))...)
	}
	sc.set.Reset(internLen)
	sc.seedPos.Reset(queueLen)
}

// scratchFor returns the scratch for worker w, growing the pool.
// scratch[0] serves every sequential path.
func (s *Server) scratchFor(w int) *closureScratch {
	for len(s.scratch) <= w {
		s.scratch = append(s.scratch, &closureScratch{})
	}
	return s.scratch[w]
}

// growWriters keeps the writer-list tables in step with the interner:
// the global segment's own, and the one table every lane segment holds.
func (s *Server) growWriters() {
	n := s.intern.Len()
	for len(s.writers) < n {
		s.writers = append(s.writers, nil)
	}
	if len(s.lanes) == 0 || len(s.lanes[0].writers) >= n {
		return
	}
	shared := s.lanes[0].writers
	for len(shared) < n {
		shared = append(shared, nil)
	}
	for i := range s.lanes {
		s.lanes[i].writers = shared
	}
}

// liveFrom returns the index of the first seq in lst above installed.
// Lists are ascending, so lst[liveFrom:] are the live writers.
func liveFrom(lst []uint64, installed uint64) int {
	return sort.Search(len(lst), func(i int) bool { return lst[i] > installed })
}

// addCandidates marks as walk candidates every live uncommitted writer
// of object o at a view-queue position strictly below bound. Called when
// o enters the chain set with the walk at position bound; the walk only
// ever looks down, so writers at or above bound are already handled.
func addCandidates(v *walkView, sc *closureScratch, o uint32, bound int, st *walkStats) {
	lst := v.writers[o]
	st.lookups++
	base := v.installed + 1 // queue position of seq q is q - base
	lo := liveFrom(lst, v.installed)
	hi := sort.Search(len(lst), func(i int) bool { return lst[i] >= base+uint64(bound) })
	for _, seq := range lst[lo:hi] {
		j := int(seq - base)
		sc.cand[j>>6] |= 1 << uint(j&63)
	}
}
