// Package spatial provides the uniform grid index over segments (walls).
// Manhattan People move evaluation queries "the walls closest to the
// client's avatar" (Section V-A2); the segment index makes that query
// cheap enough to run hundreds of thousands of times per experiment.
// The walls are trusted world geometry, so the index keeps its own cell
// keys; the engine's cells over client-declared positions are
// geom.CellOf's.
package spatial

import (
	"math"

	"seve/internal/geom"
)

type cellKey struct{ x, y int32 }

// SegmentIndex is an immutable uniform grid over line segments. Build it
// once from the generated walls; lookups never mutate it, so a single
// index is safely shared by every simulated node.
type SegmentIndex struct {
	cell  float64
	segs  []geom.Segment
	cells map[cellKey][]int32
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
		cells: make(map[cellKey][]int32),
	}
	for i, s := range segs {
		idx.eachCellOf(s, func(k cellKey) {
			idx.cells[k] = append(idx.cells[k], int32(i))
		})
	}
	return idx
}

func (idx *SegmentIndex) key(p geom.Vec) cellKey {
	return cellKey{int32(math.Floor(p.X / idx.cell)), int32(math.Floor(p.Y / idx.cell))}
}

// eachCellOf visits every cell overlapped by the segment's bounding box.
// Walls are short (length 10) relative to cell sizes, so the box is tight.
func (idx *SegmentIndex) eachCellOf(s geom.Segment, f func(cellKey)) {
	lo := geom.Vec{X: math.Min(s.A.X, s.B.X), Y: math.Min(s.A.Y, s.B.Y)}
	hi := geom.Vec{X: math.Max(s.A.X, s.B.X), Y: math.Max(s.A.Y, s.B.Y)}
	k0, k1 := idx.key(lo), idx.key(hi)
	for x := k0.x; x <= k1.x; x++ {
		for y := k0.y; y <= k1.y; y++ {
			f(cellKey{x, y})
		}
	}
}

// Len reports the number of indexed segments.
func (idx *SegmentIndex) Len() int { return len(idx.segs) }

// Segment returns the i-th indexed segment.
func (idx *SegmentIndex) Segment(i int) geom.Segment { return idx.segs[i] }

// CountWithin reports how many segments lie within r of p. This is the
// "visible walls" count that calibrates per-move compute cost (6.95 ms per
// 1000 visible walls, Section V-A2).
func (idx *SegmentIndex) CountWithin(p geom.Vec, r float64) int {
	k0 := idx.key(geom.Vec{X: p.X - r, Y: p.Y - r})
	k1 := idx.key(geom.Vec{X: p.X + r, Y: p.Y + r})
	seen := map[int32]bool{}
	n := 0
	for x := k0.x; x <= k1.x; x++ {
		for y := k0.y; y <= k1.y; y++ {
			for _, i := range idx.cells[cellKey{x, y}] {
				if seen[i] {
					continue
				}
				seen[i] = true
				if idx.segs[i].DistTo(p) <= r {
					n++
				}
			}
		}
	}
	return n
}
