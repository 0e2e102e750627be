package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"seve/internal/geom"
)

// The entry grid is the push planner's spatial index, the engine's
// second beside the reverse conflict index (DESIGN.md §7). Each Tick
// buckets the window's entries into square cells whose side bounds the
// Equation (1) reach of every (entry, client) pair the tick can test:
//
//	cell = 2s(1+ω)RTT + max rA + max rC
//
// A pair that passes Equation (1) is at most one side apart on each
// axis, so it lies in adjacent cells and a client need only test the
// entries of the 3×3 cells around its own. The cells are geom.CellOf's,
// the one cell function the relay cells and the shard lanes use too.
// Entries the grid cannot place go on the always list, which every placed
// client tests: no position; a velocity under area culling (the
// projection depends on the client's posAtMs); a position CellOf refuses
// (non-finite or off its keys).
// Clients the grid cannot place (no position, a non-finite radius, a
// position off the keys), and every client of a tick whose cell side is
// not finite or out of range, scan the whole window instead.
// pushEligible still decides every candidate, so the grid only removes
// tests that would have failed.
type pushGrid struct {
	// cell is the side of a cell; 0 when this tick has no grid.
	cell float64
	// placed holds the placed entries sorted by (cell key, window
	// ordinal); always holds the other entries' window ordinals in
	// ascending order.
	placed []gridSlot
	always []int32
}

// gridSlot is one placed window entry: its cell key (geom.CellKey) and
// its ordinal in the tick's window.
type gridSlot struct {
	key uint64
	ord int32
}

const (
	// gridSlack widens the cell by a relative 2^-16, far above the few
	// ulps of rounding in Equation (1)'s squared comparison and in the
	// key division (at most 2^-22 of a cell under CellOf's 2^30 bound),
	// so rounding can never put a passing pair two cells apart.
	gridSlack = 1.0 / (1 << 16)
	// A cell side outside [gridMinCell, gridMaxCell] — or not a number —
	// leaves the tick without a grid: near overflow the squared
	// comparison passes pairs whose squared distance is +Inf, near
	// underflow pairs whose squared distance rounds to 0.
	gridMinCell = 0x1p-500
	gridMaxCell = 0x1p500
)

// pushCellSide is the grid's cell side for the base reach 2s(1+ω)RTT and
// the largest entry and client radii. Magnitudes bound Equation (1)'s
// squared comparison even when a declared radius is negative.
func pushCellSide(base, rA, rC float64) float64 {
	return (math.Abs(base) + rA + rC) * (1 + gridSlack)
}

// gridEntry reports whether e can go on the grid (if its position also
// yields a cell key).
func (s *Server) gridEntry(e *entry) bool {
	return e.hasPos && !(s.cfg.AreaCulling && e.hasVel)
}

// gridClient reports whether ci can query the grid (if its position also
// yields a cell key). A non-finite rC would cost every tick its grid for
// as long as the registration lasts, so such a client scans instead.
func (s *Server) gridClient(ci *clientInfo) bool {
	return ci.hasPos && math.Abs(s.clientRadius(ci)) <= math.MaxFloat64
}

// buildPushGrid indexes the tick's window for planPush. It runs on the
// engine goroutine before the planning fan-out, and planning only reads
// it. Under the fullScan reference switch no grid is built.
func (s *Server) buildPushGrid(window []int, recs []*clientRec) {
	g := &s.grid
	g.cell, g.placed, g.always = 0, g.placed[:0], g.always[:0]
	if s.fullScan {
		return
	}
	var rA, rC float64
	for _, rec := range recs {
		if s.gridClient(&rec.clientInfo) {
			rC = max(rC, math.Abs(s.clientRadius(&rec.clientInfo)))
		}
	}
	for _, i := range window {
		if e := s.queue[i]; s.gridEntry(e) {
			rA = max(rA, math.Abs(e.radius))
		}
	}
	cell := pushCellSide(geom.Reach(s.cfg.MaxSpeed, s.cfg.Omega, s.cfg.RTTMs), rA, rC)
	if !(cell >= gridMinCell && cell <= gridMaxCell) {
		return
	}
	g.cell = cell
	for ord, i := range window {
		if e := s.queue[i]; s.gridEntry(e) {
			if cx, cy, ok := geom.CellOf(e.pos, g.cell); ok {
				g.placed = append(g.placed, gridSlot{key: geom.CellKey(cx, cy), ord: int32(ord)})
				continue
			}
		}
		g.always = append(g.always, int32(ord))
	}
	slices.SortFunc(g.placed, compareSlots)
}

// compareSlots orders slots by (cell key, ordinal).
func compareSlots(a, b gridSlot) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.ord, b.ord)
}

// pushSeeds appends to dst, in window order, the window entries not yet
// sent to rec that pushEligible accepts: from the grid's candidates when
// rec is placed on this tick's grid and they are fewer than the window,
// from the whole window otherwise. st counts the eligibility tests and
// grid lookups.
func (s *Server) pushSeeds(dst []int, rec *clientRec, window []int, nowMs float64, sc *closureScratch, st *walkStats) []int {
	g := &s.grid
	if g.cell != 0 && s.gridClient(&rec.clientInfo) {
		if cx, cy, ok := geom.CellOf(rec.pos, g.cell); ok {
			st.gridLookups++
			// The three column ranges cx−1…cx+1 × cy−1…cy+1 of placed.
			var cols [3][2]int
			n := len(g.always)
			for k := range cols {
				x := cx - 1 + int32(k)
				lo, _ := slices.BinarySearchFunc(g.placed, geom.CellKey(x, cy-1), func(e gridSlot, key uint64) int {
					return cmp.Compare(e.key, key)
				})
				hi, end := lo, geom.CellKey(x, cy+1)
				for hi < len(g.placed) && g.placed[hi].key <= end {
					hi++
				}
				cols[k] = [2]int{lo, hi}
				n += hi - lo
			}
			// When the 3×3 cells hold the whole window (a crowd), the
			// candidates are the window itself, already in order.
			if n < len(window) {
				return s.gridSeeds(dst, rec, window, &cols, nowMs, sc, st)
			}
		}
	}
	for _, i := range window {
		if s.pushTest(s.queue[i], rec, nowMs, st) {
			dst = append(dst, i)
		}
	}
	return dst
}

// gridSeeds is pushSeeds over the column ranges cols of placed plus the
// always list. Accepted candidates are marked by window ordinal in the
// worker's bitset, and walking its words emits them in window order
// without a sort.
func (s *Server) gridSeeds(dst []int, rec *clientRec, window []int, cols *[3][2]int, nowMs float64, sc *closureScratch, st *walkStats) []int {
	g := &s.grid
	if n := (len(window) + 63) >> 6; len(sc.mark) < n {
		sc.mark = make([]uint64, n)
	}
	mark := sc.mark
	lo, hi := len(mark), -1
	accept := func(ord int32) {
		if s.pushTest(s.queue[window[ord]], rec, nowMs, st) {
			w := int(ord >> 6)
			mark[w] |= 1 << uint(ord&63)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	for _, c := range cols {
		for _, slot := range g.placed[c[0]:c[1]] {
			accept(slot.ord)
		}
	}
	for _, ord := range g.always {
		accept(ord)
	}
	for w := lo; w <= hi; w++ {
		for word := mark[w]; word != 0; word &= word - 1 {
			dst = append(dst, window[w<<6|bits.TrailingZeros64(word)])
		}
		mark[w] = 0
	}
	return dst
}

// pushTest is one push candidate: skipped if already sent to rec,
// otherwise decided (and counted) by pushEligible.
func (s *Server) pushTest(e *entry, rec *clientRec, nowMs float64, st *walkStats) bool {
	if e.sent.has(rec.slot) {
		return false
	}
	st.pushTests++
	return s.pushEligible(e, &rec.clientInfo, nowMs)
}
