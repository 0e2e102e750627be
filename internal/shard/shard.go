// Package shard is the spatially partitioned sharded serializer: a
// core.Engine that routes each submitted action to the shard lane owning
// its read/write-set footprint, runs the per-action pipeline — stamping,
// the Algorithm 6/7 analysis walks, and reply commit — on one persistent
// worker per lane over that lane's own partition of engine state, and
// merges the lane-local streams into one reproducible total order.
//
// The paper's thin server is a single sequential state machine; PR 1–3
// made each of its operations cheap, but one lane is still the ceiling
// on "millions of users". The observation that unlocks sharding without
// giving up Theorem 1 is the paper's own: actions declare their read and
// write sets up front, so whether two actions can conflict is statically
// checkable per action. The router partitions object ownership over a
// spatial grid — geom.CellOf's cells, the push grid's and relay cells'
// cell function, dealt to lanes least-loaded first and kept (ownership) —
// and keeps three invariants:
//
//   - Actions whose RS ∪ WS footprint is owned by a single lane are
//     buffered on that lane within the current epoch.
//   - Actions whose footprint spans partitions are stamped by the global
//     sequencer lane: they close the epoch, pass through the sequential
//     path every shard observes, and so act as cross-shard barriers.
//   - A client stays on one lane per epoch (a lane switch closes the
//     epoch), so per-recipient reply state never crosses lanes inside an
//     epoch.
//
// The engine's uncommitted queue is itself partitioned (see
// core/pipeline.go): each lane owns a segment of it and the rows of a
// lane-numbered reverse conflict index covering exactly its own entries.
// That lane map (ownership) is the engine's only partition; ζS stays one
// map, installed in serial order. An epoch flushes through the engine's
// one submit pipeline — buffered completions install first, then the
// six passes
//
//	Lane.Stamp* → SealStamp → Lane.Plan* → PreCommit → Lane.Commit* → SealCommit
//
// where the starred passes are methods on a core.Lane handle — one per
// lane, holding only that lane's segment — run one task per lane on the
// persistent lane workers and the others are short sequential merges in
// the order (epoch, shardLane, localSeq). Lane-local analysis is sound
// because of lane closure: while no spanning entry is live in the queue,
// a conflict chain seeded in lane L cannot leave L's segment, so the
// lane-view walks visit exactly the entries the global walk would have
// acted on. Whenever a spanning "bridge" IS live, the epoch instead runs
// each job through the single-lane path (core.Server.SubmitPrepared) in
// the same merge order (a fallback epoch) until the bridge installs.
// Either way, everything whose cross-lane order is observable — global
// Seqs, blind-write ids, per-client batch sequences, reply emission — is
// fixed in merge order, so the serial order and every emitted byte are a
// pure function of the submission streams — independent of GOMAXPROCS
// and goroutine scheduling — and identical to what the single-lane
// engine produces when driven through the same effective order
// (TestShardedEquivalence).
package shard

import (
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/world"
)

// NewEngine returns the engine for cfg: the sharded router when
// cfg.Shards > 1, otherwise the single-lane core.Server. ModeBasic has
// no per-action analysis worth sharding (the server only appends to a
// log) and always gets the single lane.
func NewEngine(cfg core.Config, init *world.State) core.Engine {
	if cfg.Shards <= 1 || cfg.Mode == core.ModeBasic {
		return core.NewServer(cfg, init)
	}
	return New(cfg, init)
}

// ownership is the one table on the lane-placement path: the sticky
// cell→lane map and the sticky object→lane assignment. Objects are keyed
// by the engine interner's dense indices (the same indices
// Pending.Footprint yields, so routing a buffered submission is pure
// array reads). An object is placed when first seen in a footprint: a
// spatial action pins it to the lane of its influence centre's cell; a
// non-spatial action, or a centre geom.CellOf refuses (non-finite or off
// the cell keys), falls back to a hash of the sparse object id.
//
// A cell is dealt on first sight to the least-loaded lane — fewest dealt
// cells, preferring the cell's arithmetic region on a tie and the lowest
// lane after that — and keeps it, as does every object pinned through
// it. Least-loaded beats a bare hash because the lanes a world uses are
// decided by a handful of occupied cells: hashing 2n cells onto n lanes
// leaves some lane owning Θ(log n / log log n) of them, and the slowest
// lane bounds every parallel phase of the epoch pipeline. Assignment
// happens on the sequential routing path, so the table is a pure
// function of the submission stream — a requirement for the
// reproducible merge order.
type ownership struct {
	cell float64
	// cells maps a geom.CellKey to its lane; dealt counts the cells per
	// lane.
	cells map[uint64]int
	dealt []int
	// byDense is each interned object's lane (-1 until placed); perLane
	// counts the objects per lane.
	byDense []int32
	perLane []int
}

func newOwnership(cell float64, n int) *ownership {
	return &ownership{
		cell:    cell,
		cells:   make(map[uint64]int),
		dealt:   make([]int, n),
		perLane: make([]int, n),
	}
}

// grow keeps the dense table in step with the engine's interner.
func (t *ownership) grow(n int) {
	for len(t.byDense) < n {
		t.byDense = append(t.byDense, -1)
	}
}

// ownerOf returns the owning lane of dense index o (sparse id `id`),
// assigning one on first sight from the submission's influence centre
// when it declares a meaningful one.
func (t *ownership) ownerOf(o uint32, id world.ObjectID, hasPos bool, pos geom.Vec) int {
	if lane := t.byDense[o]; lane >= 0 {
		return int(lane)
	}
	lane := -1
	if hasPos {
		lane = t.cellLane(pos)
	}
	if lane < 0 {
		lane = int(mix64(uint64(id)) % uint64(len(t.perLane)))
	}
	t.byDense[o] = int32(lane)
	t.perLane[lane]++
	return lane
}

// cellLane returns the lane of pos's cell, dealing the cell on first
// sight, or -1 when geom.CellOf refuses pos.
func (t *ownership) cellLane(pos geom.Vec) int {
	cx, cy, ok := geom.CellOf(pos, t.cell)
	if !ok {
		return -1
	}
	k := geom.CellKey(cx, cy)
	if lane, ok := t.cells[k]; ok {
		return lane
	}
	lane := region(cx, cy, len(t.dealt))
	for l, c := range t.dealt {
		if c < t.dealt[lane] {
			lane = l
		}
	}
	t.cells[k] = lane
	t.dealt[lane]++
	return lane
}

// region is a cell's tie-break lane: the two cell coordinates mixed so
// stripes align with neither axis (plain (x+y) mod n sends every
// diagonal to one lane).
func region(cx, cy int32, n int) int {
	h := uint64(uint32(cx))*0x9e3779b1 ^ uint64(uint32(cy))*0x85ebca6b
	h ^= h >> 33
	h *= 0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return int(h % uint64(n))
}

// mix64 is a splitmix64 finalizer: cheap, stateless, and well spread
// even for the dense small ObjectIDs the worlds mint.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
