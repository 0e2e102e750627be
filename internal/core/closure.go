package core

import (
	"math/bits"
	"slices"

	"seve/internal/world"
)

// closureWalk implements Algorithm 6, TransitiveClosure(A): given seed
// indexes into the uncommitted queue (the just-submitted action for a
// reply; the push-eligible actions for a First Bound push), S starts as
// the union of the seeds' read sets and the queue below the highest
// seed is visited newest-to-oldest. An entry whose write set intersects
// S either extends S with its read set and joins the batch, or — when
// already(e) reports the recipient holds its effects — subtracts its
// write set from S (the client has them; they need not be seeded by the
// blind write). It returns the batch's queue positions (seeds plus
// walk-included entries, in ascending serial order) and the blind-write
// payload W(S, ζS(S)), the authoritative values of everything the batch
// must read.
//
// One generalization relative to the paper: Algorithm 6 is stated for a
// single seed (the submitted action a_{n+1}). First Bound pushes reuse
// it with multiple seeds — the union of their read sets starts S, and
// the walk skips the seed positions.
//
// Two mechanisms replace the pre-index full-queue walk:
//
//   - S is an epoch-stamped dense set over interned object indices, so
//     the chain-set updates are O(|set|) array stamps with no per-step
//     allocation (the sorted-slice IDSet ops allocated a fresh slice
//     per union/subtract).
//   - Unless the fullScan reference switch is set, the walk visits only
//     candidate positions drawn from the reverse conflict index: when
//     an object enters S at position p, every live uncommitted writer
//     of it below p becomes a candidate. Every popped candidate
//     re-checks WS ∩ S against the live S, so stale candidates (their
//     object since subtracted) drop out, and candidates are popped
//     highest-first by scanning the bitmap words top-down — the visit
//     sequence is exactly the subsequence of the full walk the full
//     walk would have acted on, and the outputs are byte-identical
//     (asserted by TestClosureIndexEquivalence).
//
// The walk only reads server state; mutations (sent marks, counters,
// blind-write ids) belong to the caller via commitPlan/noteWalk.
// That is what lets the First Bound push scheduler fan walks for
// different clients out over a worker pool (bound.go), and the shard
// router fan walks for different lanes over lane-segment views
// (pipeline.go) — seeds and returned positions are indexes into v.queue.
func (s *shared) closureWalk(v *walkView, seeds []int, sc *closureScratch, already func(int, *entry) bool) (positions []int, writes []world.Write, st walkStats) {
	sc.ensure(len(v.queue), s.intern.Len())
	useIndex := !s.fullScan

	maxSeed := -1
	positions = make([]int, 0, len(seeds)+4)
	for _, i := range seeds {
		if i > maxSeed {
			maxSeed = i
		}
		sc.seedPos.Add(uint32(i))
		positions = append(positions, i)
	}
	for _, i := range seeds {
		for _, o := range v.queue[i].rsd {
			if sc.set.Add(o) && useIndex {
				addCandidates(v, sc, o, maxSeed, &st)
			}
		}
	}
	st.baseline = maxSeed - (len(seeds) - 1)

	if useIndex {
		for w := (maxSeed - 1) >> 6; w >= 0; w-- {
			for sc.cand[w] != 0 {
				b := bits.Len64(sc.cand[w]) - 1
				sc.cand[w] &^= 1 << uint(b)
				j := w<<6 | b
				if sc.seedPos.Contains(uint32(j)) {
					continue
				}
				st.scanned++
				e := v.queue[j]
				if !sc.set.ContainsAny(e.wsd) {
					continue // stale candidate: its object left S
				}
				if already(j, e) {
					sc.set.RemoveAll(e.wsd)
					continue
				}
				for _, o := range e.rsd {
					if sc.set.Add(o) {
						addCandidates(v, sc, o, j, &st)
					}
				}
				positions = append(positions, j)
			}
		}
	} else {
		for j := maxSeed - 1; j >= 0; j-- {
			if sc.seedPos.Contains(uint32(j)) {
				continue
			}
			st.scanned++
			e := v.queue[j]
			if !sc.set.ContainsAny(e.wsd) {
				continue
			}
			if already(j, e) {
				sc.set.RemoveAll(e.wsd)
				continue
			}
			sc.set.AddAll(e.rsd)
			positions = append(positions, j)
		}
	}

	// The client applies the batch in delivery order and an action at
	// position n reads versions ≤ n−1, so the batch must be in
	// ascending serial order.
	slices.Sort(positions)
	writes = s.blindWrites(sc)
	return positions, writes, st
}

// blindWrites materializes W(S, ζS(S)): the authoritative values, as of
// the install point, of every object in the final chain set that exists
// in ζS. Objects unknown to ζS are skipped — they do not exist yet at
// the install point, and any queued creator of them is in the batch.
// Ids are emitted in ascending order, matching the sorted-IDSet
// iteration of the pre-index implementation. The values are copies cut
// with no spare capacity from one array per batch, so they share the
// batch's lifetime.
func (s *shared) blindWrites(sc *closureScratch) []world.Write {
	sc.memb = sc.set.AppendMembers(sc.memb[:0])
	ids := sc.objs[:0]
	for _, m := range sc.memb {
		ids = append(ids, s.intern.ID(m))
	}
	sc.objs = ids
	slices.Sort(ids)
	var writes []world.Write
	words := 0
	for _, id := range ids {
		if v, ok := s.zs.Get(id); ok {
			if writes == nil {
				writes = make([]world.Write, 0, len(ids))
			}
			writes = append(writes, world.Write{ID: id, Val: v})
			words += len(v)
		}
	}
	vals := make([]float64, words)
	for i, w := range writes {
		if w.Val != nil {
			n := copy(vals, w.Val)
			writes[i].Val, vals = vals[:n:n], vals[n:]
		}
	}
	return writes
}
