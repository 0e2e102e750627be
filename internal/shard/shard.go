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
// spatial grid (spatial.Partitioner behind a sticky spatial.LaneMap) and
// keeps three invariants:
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
// The engine's authoritative state is itself partitioned (see
// core/pipeline.go): each lane owns a segment of the uncommitted queue
// and the rows of a lane-numbered reverse conflict index covering
// exactly its own entries, and ζS is hash-segmented for parallel
// installs. An epoch flushes through the engine's one submit pipeline —
// buffered completions install first, then the six passes
//
//	StampLane*  → SealStamp → PlanReply* → PreCommit → CommitLane* → SealCommit
//
// where the starred passes run one task per lane on the persistent lane
// workers and the others are short sequential merges in the order
// (epoch, shardLane, localSeq). Lane-local analysis is sound because of
// lane closure: while no spanning entry is live in the queue, a
// conflict chain seeded in lane L cannot leave L's segment, so the
// lane-view walks visit exactly the entries the global walk would have
// acted on. Whenever a spanning "bridge" IS live, the epoch runs the
// same six passes with every job on the global view instead (a fallback
// epoch: stamp and commit one sequential task each, only the planning
// still fanned out) until the bridge installs. Either way, everything whose cross-lane order is observable — global Seqs,
// blind-write ids, per-client batch sequences, reply emission — is
// fixed by the sequential merge passes, so the serial order and every
// emitted byte are a pure function of the submission streams —
// independent of GOMAXPROCS and goroutine scheduling — and identical to
// what the single-lane engine produces when driven through the same
// effective order (TestShardedEquivalence).
package shard

import (
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/spatial"
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

// ownership is the sticky object→lane assignment, keyed by the engine
// interner's dense object indices (the same indices Pending.Footprint
// yields, so routing a buffered submission is pure array reads). An
// object is placed when first seen in a footprint: spatial actions pin
// it to the lane owning their influence centre's grid cell (through the
// LaneMap, so a rebalanced cell keeps already-pinned objects put);
// non-spatial actions fall back to a hash of the sparse object id.
// Assignment happens on the sequential routing path, so the table is
// deterministic given the submission stream — a requirement for the
// reproducible merge order.
type ownership struct {
	lanes   *spatial.LaneMap
	byDense []int32
	perLane []int
}

func newOwnership(lanes *spatial.LaneMap) *ownership {
	return &ownership{
		lanes:   lanes,
		perLane: make([]int, lanes.Shards()),
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
		lane = t.lanes.LaneOf(pos)
	}
	if lane < 0 {
		lane = int(mix64(uint64(id)) % uint64(t.lanes.Shards()))
	}
	t.byDense[o] = int32(lane)
	t.perLane[lane]++
	return lane
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
