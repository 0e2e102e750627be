// Package spatial provides the uniform grid index over segments (walls).
// Manhattan People move evaluation queries "the walls closest to the
// client's avatar" (Section V-A2); the segment index makes that query
// cheap enough to run hundreds of thousands of times per experiment.
// Its cells are geom.CellOf's, the one cell function the engine keys
// client-declared positions through: a box CellOf cannot place
// (non-finite, or past its ±2³⁰ keys) is answered by scanning the
// segments instead.
package spatial

import (
	"math"

	"seve/internal/geom"
)

// SegmentIndex is an immutable uniform grid over line segments. Build it
// once from the generated walls; lookups never mutate it, so a single
// index is safely shared by every simulated node.
type SegmentIndex struct {
	cell float64
	segs []geom.Segment
	// cells maps a geom.CellKey to the segments whose bounding box
	// overlaps the cell; unplaced lists those whose box CellOf refuses.
	cells    map[uint64][]int32
	unplaced []int32
}

// NewSegmentIndex indexes segs with the given cell size. Cell size should
// be on the order of the query radius; Manhattan People uses the avatar
// visibility (30 units, Table I).
func NewSegmentIndex(segs []geom.Segment, cellSize float64) *SegmentIndex {
	if cellSize <= 0 {
		cellSize = 1
	}
	idx := &SegmentIndex{
		cell:  cellSize,
		segs:  segs,
		cells: make(map[uint64][]int32),
	}
	for i, s := range segs {
		// Walls are short (length 10) relative to cell sizes, so the box
		// is tight.
		x0, y0, x1, y1, ok := idx.box(bounds(s))
		if !ok {
			idx.unplaced = append(idx.unplaced, int32(i))
			continue
		}
		for x := x0; x <= x1; x++ {
			for y := y0; y <= y1; y++ {
				k := geom.CellKey(x, y)
				idx.cells[k] = append(idx.cells[k], int32(i))
			}
		}
	}
	return idx
}

// bounds returns the bounding box of s.
func bounds(s geom.Segment) (lo, hi geom.Vec) {
	return geom.Vec{X: math.Min(s.A.X, s.B.X), Y: math.Min(s.A.Y, s.B.Y)},
		geom.Vec{X: math.Max(s.A.X, s.B.X), Y: math.Max(s.A.Y, s.B.Y)}
}

// box returns the cell range of the box [lo, hi], or false when
// geom.CellOf refuses a corner. Every index in range is inside ±2³⁰, so
// a loop up to x1 or y1 cannot wrap.
func (idx *SegmentIndex) box(lo, hi geom.Vec) (x0, y0, x1, y1 int32, ok bool) {
	x0, y0, ok0 := geom.CellOf(lo, idx.cell)
	x1, y1, ok1 := geom.CellOf(hi, idx.cell)
	return x0, y0, x1, y1, ok0 && ok1
}

// Len reports the number of indexed segments.
func (idx *SegmentIndex) Len() int { return len(idx.segs) }

// Segment returns the i-th indexed segment.
func (idx *SegmentIndex) Segment(i int) geom.Segment { return idx.segs[i] }

// CountWithin reports how many segments lie within r of p. This is the
// "visible walls" count that calibrates per-move compute cost (6.95 ms per
// 1000 visible walls, Section V-A2). A segment is listed in every cell its
// box meets; the query counts it only in the first of those cells inside
// the query box, found from the segment's own lowest cell, so it needs no
// set and allocates nothing. A query box CellOf refuses, or one covering
// more cells than the index holds, scans the segments with the same
// distance test, so the count is exact either way.
func (idx *SegmentIndex) CountWithin(p geom.Vec, r float64) int {
	x0, y0, x1, y1, ok := idx.queryBox(p, r)
	if !ok {
		n := 0
		for _, s := range idx.segs {
			if s.DistTo(p) <= r {
				n++
			}
		}
		return n
	}
	n := 0
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for _, i := range idx.cells[geom.CellKey(x, y)] {
				lo, _ := bounds(idx.segs[i])
				lx, ly, _ := geom.CellOf(lo, idx.cell)
				if max(lx, x0) == x && max(ly, y0) == y && idx.segs[i].DistTo(p) <= r {
					n++
				}
			}
		}
	}
	for _, i := range idx.unplaced {
		if idx.segs[i].DistTo(p) <= r {
			n++
		}
	}
	return n
}

// AnyWithin reports whether any segment lies within r of p, which is
// CountWithin(p, r) > 0 without the count: it returns on the first hit,
// and a segment listed in several cells may be tested more than once, so
// it needs no deduplication. It allocates nothing.
func (idx *SegmentIndex) AnyWithin(p geom.Vec, r float64) bool {
	x0, y0, x1, y1, ok := idx.queryBox(p, r)
	if !ok {
		for _, s := range idx.segs {
			if s.DistTo(p) <= r {
				return true
			}
		}
		return false
	}
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for _, i := range idx.cells[geom.CellKey(x, y)] {
				if idx.segs[i].DistTo(p) <= r {
					return true
				}
			}
		}
	}
	for _, i := range idx.unplaced {
		if idx.segs[i].DistTo(p) <= r {
			return true
		}
	}
	return false
}

// queryBox returns the cell range of the square of half-side r about p,
// or false when a query should scan the segments instead: CellOf refuses
// a corner, or the box covers more cells than the index holds.
func (idx *SegmentIndex) queryBox(p geom.Vec, r float64) (x0, y0, x1, y1 int32, ok bool) {
	x0, y0, x1, y1, ok = idx.box(geom.Vec{X: p.X - r, Y: p.Y - r}, geom.Vec{X: p.X + r, Y: p.Y + r})
	return x0, y0, x1, y1, ok && (int64(x1)-int64(x0)+1)*(int64(y1)-int64(y0)+1) <= int64(len(idx.cells))
}
