package metrics

import "fmt"

// LaneStats is one shard lane's share of the router's work.
type LaneStats struct {
	// Actions counts submissions routed to (and stamped through) this
	// lane.
	Actions int
	// OwnedObjects counts objects whose ownership the spatial partition
	// assigned to this lane.
	OwnedObjects int
}

// RouterStats is a snapshot of the shard router's cumulative counters:
// how submissions were routed across the spatial-partition lanes, how
// often epochs flushed and why, how many ran the partitioned per-lane
// pipeline, and where the pipeline's time went. Produced by
// shard.Router.RouterMetrics and surfaced by cmd/seve-server on
// shutdown and by `go run ./bench -trace 1` (the shard.* metrics).
type RouterStats struct {
	// Shards is the configured lane count.
	Shards int

	// Routing totals. LocalActions were owned by a single lane;
	// CrossShardActions rode the global sequencer lane (each one closes
	// an epoch) — either a genuinely partition-spanning footprint or an
	// empty one. SpanningActions counts only the former: the entries
	// that become cross-lane bridges and force fallback epochs while
	// live.
	LocalActions      int
	CrossShardActions int
	SpanningActions   int

	// Epoch accounting: total epochs flushed, and flush triggers by
	// cause — a cross-shard action arriving, a client switching lanes
	// mid-epoch, the epoch size cap, a non-submission message needing
	// settled state, and explicit Flush calls from the transport.
	Epochs            int
	CrossShardFlushes int
	LaneSwitchFlushes int
	SizeFlushes       int
	BarrierFlushes    int
	ExternalFlushes   int

	// Pipeline selection: epochs that ran the partitioned per-lane
	// pipeline (parallel stamp, plan, and commit over lane segments) vs
	// the global fallback (sequential stamp and commit; required while a
	// spanning bridge is live in the uncommitted queue).
	PartitionedEpochs int
	FallbackEpochs    int

	// LaneImbalance averages, over partitioned epochs, the busiest
	// lane's submission count divided by the per-lane mean — 1.0 is a
	// perfectly balanced epoch, Shards is everything on one lane. The
	// critical-path phase times approach total/Shards only as this
	// approaches 1.
	LaneImbalance float64

	// ParallelPlans counts replies planned with more than one lane
	// active in the epoch — the plans eligible for lane-parallel
	// execution (single-active-lane epochs run inline and are excluded).
	ParallelPlans int

	// Phase timings, cumulative nanoseconds of engine compute. The *Ns
	// totals sum every lane's time in a phase; the *CritNs totals sum
	// only each epoch's slowest lane — the phase's critical path.
	// Fallback epochs run stamp and commit sequentially, so they charge
	// those phases' total and critical-path counters equally. MergeNs is
	// the partitioned pipeline's sequential seal passes (SealStamp,
	// PreCommit, SealCommit) and InstallNs the completion-install pass
	// at the head of each flush. Write application inside an install
	// fans out per ζS segment, so InstallCritNs charges each install
	// only its elapsed time minus the overlap a parallel run would
	// reclaim (the segment tasks' summed duration less the slowest
	// task); the in-order bookkeeping remainder stays sequential. On a
	// machine with at least Shards cores the wall clock of flushing
	// approaches
	//
	//	StampCrit + PlanCrit + CommitCrit + Merge + InstallCrit
	//
	// while a single lane pays Stamp + Plan + Commit + Merge + Install;
	// the ratio of those two sums is the router's achievable speedup on
	// this workload, hardware permitting.
	StampNs       int64
	StampCritNs   int64
	PlanNs        int64
	PlanCritNs    int64
	CommitNs      int64
	CommitCritNs  int64
	MergeNs       int64
	InstallNs     int64
	InstallCritNs int64

	// PerLane breaks the routed work down by lane.
	PerLane []LaneStats
}

// Table renders the snapshot as a two-column table with one row block
// per lane.
func (st RouterStats) Table() *Table {
	t := &Table{Title: "shard router counters", Header: []string{"counter", "value"}}
	row := func(name string, v interface{}) { t.AddRow(name, fmt.Sprint(v)) }
	ms := func(name string, ns int64) { t.AddRow(name, fmt.Sprintf("%.2f", float64(ns)/1e6)) }
	row("shards", st.Shards)
	row("local actions", st.LocalActions)
	row("cross-shard actions", st.CrossShardActions)
	row("spanning actions", st.SpanningActions)
	row("epochs", st.Epochs)
	row("epochs: partitioned", st.PartitionedEpochs)
	row("epochs: fallback", st.FallbackEpochs)
	row("flushes: cross-shard", st.CrossShardFlushes)
	row("flushes: lane switch", st.LaneSwitchFlushes)
	row("flushes: size cap", st.SizeFlushes)
	row("flushes: barrier msg", st.BarrierFlushes)
	row("flushes: external", st.ExternalFlushes)
	row("lane imbalance", fmt.Sprintf("%.2f", st.LaneImbalance))
	row("parallel plans", st.ParallelPlans)
	ms("stamp ms (all lanes)", st.StampNs)
	ms("stamp ms (critical path)", st.StampCritNs)
	ms("plan ms (all lanes)", st.PlanNs)
	ms("plan ms (critical path)", st.PlanCritNs)
	ms("commit ms (all lanes)", st.CommitNs)
	ms("commit ms (critical path)", st.CommitCritNs)
	ms("merge ms", st.MergeNs)
	ms("install ms", st.InstallNs)
	ms("install ms (critical path)", st.InstallCritNs)
	for i, ls := range st.PerLane {
		row(fmt.Sprintf("lane %d actions", i), ls.Actions)
		row(fmt.Sprintf("lane %d owned objects", i), ls.OwnedObjects)
	}
	return t
}

// String renders the snapshot via Table.
func (st RouterStats) String() string { return st.Table().String() }
