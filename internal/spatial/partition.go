package spatial

import (
	"math"

	"seve/internal/geom"
)

// Partitioner maps world positions to one of n shards through a uniform
// grid: space is cut into cells of the given size and cells are dealt to
// shards in a checkerboard stripe, so adjacent cells land on different
// shards and any compact crowd spreads across the fleet instead of
// hot-spotting one lane. The mapping is pure arithmetic — deterministic
// across runs, goroutines, and processes — which is what the shard
// router's reproducible merge order depends on.
type Partitioner struct {
	cell float64
	n    int
}

// NewPartitioner returns a partitioner over n shards with the given grid
// cell size. Cell size should be on the order of the influence reach so
// most actions fall inside a single owner's region; non-positive values
// default to 1, and n is clamped to at least 1.
func NewPartitioner(cellSize float64, n int) *Partitioner {
	if cellSize <= 0 {
		cellSize = 1
	}
	if n < 1 {
		n = 1
	}
	return &Partitioner{cell: cellSize, n: n}
}

// Shards reports the number of shards positions are dealt across.
func (p *Partitioner) Shards() int { return p.n }

// CellSize reports the grid edge length.
func (p *Partitioner) CellSize() float64 { return p.cell }

// Region returns the owning shard of position v, in [0, Shards()).
func (p *Partitioner) Region(v geom.Vec) int {
	k := keyOf(v, p.cell)
	// Mix the two cell coordinates so stripes do not align with either
	// axis (plain (x+y) mod n sends every diagonal to one shard).
	h := uint64(uint32(k.x))*0x9e3779b1 ^ uint64(uint32(k.y))*0x85ebca6b
	h ^= h >> 33
	h *= 0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return int(h % uint64(p.n))
}

// keyOf is the shared grid-cell quantization (see SegmentIndex.key).
func keyOf(v geom.Vec, cell float64) cellKey {
	return cellKey{int32(math.Floor(v.X / cell)), int32(math.Floor(v.Y / cell))}
}

// LaneMap is the stable cell→lane ownership map the shard router (and
// through it the partitioned store) keys object ownership by. A cell is
// assigned on first lookup to the least-loaded lane — fewest pinned
// cells, preferring the Partitioner's arithmetic Region on a tie and
// the lowest lane index after that — and remembered: every cell — and
// every object already pinned through one — keeps its lane.
// Least-loaded beats the bare Region hash because the lanes a
// world actually uses are decided by a handful of occupied cells, not a
// uniform scatter: hashing 2n cells onto n lanes leaves some lane
// owning Θ(log n / log log n) of them, and the slowest lane bounds
// every parallel phase of the epoch pipeline. First sight happens on
// the router's sequential routing path, so assignments are a pure
// function of the submission stream — the determinism the reproducible
// merge order needs. That stability is what lets the router treat
// object→lane assignments as sticky.
type LaneMap struct {
	part   *Partitioner
	cells  map[cellKey]int
	counts []int
}

// NewLaneMap returns a lane map over the partitioner's shards.
func NewLaneMap(part *Partitioner) *LaneMap {
	return &LaneMap{
		part:   part,
		cells:  make(map[cellKey]int),
		counts: make([]int, part.Shards()),
	}
}

// Shards reports the lane count.
func (m *LaneMap) Shards() int { return m.part.Shards() }

// LaneOf returns the owning lane of position v, pinning its cell on
// first sight to the least-loaded lane (ties prefer the arithmetic
// Region, then the lowest index).
func (m *LaneMap) LaneOf(v geom.Vec) int {
	k := keyOf(v, m.part.CellSize())
	if lane, ok := m.cells[k]; ok {
		return lane
	}
	lane := m.part.Region(v)
	for l, c := range m.counts {
		if c < m.counts[lane] {
			lane = l
		}
	}
	m.cells[k] = lane
	m.counts[lane]++
	return lane
}
