package core

import (
	"math/bits"

	"seve/internal/geom"
	"seve/internal/world"
)

// ChainLength reports, for diagnostics and the Table II experiment, the
// number of uncommitted actions in the transitive conflict chain of a
// hypothetical action with the given read set and position — the quantity
// Algorithm 7 bounds.
func (s *Server) ChainLength(rs world.IDSet) int {
	rsd := s.intern.InternSet(rs, nil)
	s.growWriters()
	v := s.segment.view()
	_, chain, _ := s.validityWalk(&v, rsd, false, geom.Vec{}, -1, s.scratchFor(0))
	return chain
}

// validityWalk implements the conflict-detection half of Algorithm 7
// (the Information Bound Model): walking the view's uncommitted queue
// from newest to oldest with S seeded from rsd, it accumulates the
// transitive read set of the submitted action and counts the chain; when
// threshold is non-negative and a conflicting uncommitted action lies
// farther than threshold from pos, the walk stops and reports the
// submission invalid — it will be dropped (aborted immediately at the
// server, Section III-E).
//
// Two mappings from the paper's pseudocode:
//
//   - Algorithm 7 batches validity decisions per tick (onNextTick). The
//     server processes submissions one at a time anyway — the decision to
//     drop "is sequential" (Section III-E) — so checking at submission
//     time examines exactly the same queue prefix the tick-based scan
//     would, minus only the sub-tick batching artifact.
//   - The chain set update is S ← (S − WS(Aj)) ∪ RS(Aj), per Algorithm 7
//     line 26 (note the subtraction, unlike Algorithm 6): once a_j is
//     accepted as the chain's writer of those objects, older writers of
//     them no longer extend this chain.
//
// Actions without spatial metadata never break a chain (distance zero):
// the bound is a spatial heuristic and non-spatial actions are assumed
// globally relevant.
//
// Like the closure walk, the scan is driven by the reverse conflict
// index unless the fullScan reference switch is set: only positions that
// write an object currently (or previously) in the chain set are
// examined, and each re-checks WS ∩ S against the live S. And like it,
// it runs over either the global queue or one lane's segment — under the
// router's no-live-bridge precondition the chain never leaves the lane,
// so the two views visit the same conflicts.
func (s *shared) validityWalk(v *walkView, rsd []uint32, hasPos bool, pos geom.Vec, threshold float64, sc *closureScratch) (invalid bool, chain int, st walkStats) {
	sc.ensure(len(v.queue), s.intern.Len())
	useIndex := !s.fullScan
	n := len(v.queue)
	st.baseline = n

	for _, o := range rsd {
		if sc.set.Add(o) && useIndex {
			addCandidates(v, sc, o, n, &st)
		}
	}

	if !useIndex {
		for j := n - 1; j >= 0; j-- {
			st.scanned++
			prev := v.queue[j]
			if !sc.set.ContainsAny(prev.wsd) {
				continue
			}
			chain++
			if threshold >= 0 && hasPos && prev.hasPos && pos.Dist(prev.pos) > threshold {
				return true, chain, st
			}
			sc.set.RemoveAll(prev.wsd)
			sc.set.AddAll(prev.rsd)
		}
		return false, chain, st
	}

	for w := (n - 1) >> 6; w >= 0; w-- {
		for sc.cand[w] != 0 {
			b := bits.Len64(sc.cand[w]) - 1
			sc.cand[w] &^= 1 << uint(b)
			j := w<<6 | b
			st.scanned++
			prev := v.queue[j]
			if !sc.set.ContainsAny(prev.wsd) {
				continue // stale candidate: its object left the chain set
			}
			chain++
			if threshold >= 0 && hasPos && prev.hasPos && pos.Dist(prev.pos) > threshold {
				// Early exit: restore the all-zero candidate-bitmap
				// invariant for the next walk.
				for ; w >= 0; w-- {
					sc.cand[w] = 0
				}
				return true, chain, st
			}
			sc.set.RemoveAll(prev.wsd)
			for _, o := range prev.rsd {
				if sc.set.Add(o) {
					addCandidates(v, sc, o, j, &st)
				}
			}
		}
	}
	return false, chain, st
}
