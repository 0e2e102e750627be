package shard

import (
	"runtime"
	"sync"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/metrics"
	"seve/internal/wire"
	"seve/internal/world"
)

// maxEpochSubs caps how many submissions one epoch buffers before the
// router flushes on its own. Larger epochs amortize the fan-out better;
// smaller ones bound reply latency when the transport never goes idle.
const maxEpochSubs = 128

// maxEpochComps caps buffered completions the same way: installs only
// shrink the queue, so they can wait for the epoch boundary, but an
// unbounded backlog would let the uncommitted queue — and every walk
// over it — grow without bound.
const maxEpochComps = 256

// Router is the sharded serializer engine. It fronts a single
// partitioned core.Server — the shared queue, authoritative state ζS,
// and conflict index, mirrored into per-lane segments — and shards the
// per-submission pipeline across N lanes as described in the package
// comment. All entry points must be called from one goroutine (the
// core.Engine contract); the lane workers are internal and synchronize
// through the flush fan-outs only.
type Router struct {
	cfg   core.Config
	inner *core.Server
	own   *ownership
	n     int
	// serial short-circuits every fan-out to inline execution when the
	// process runs one scheduler thread: channel handoffs cannot buy
	// wall-clock there, only pay context switches. Snapshotted at
	// construction; the pipeline's outputs are identical either way
	// (TestShardedDeterminism).
	serial bool

	// Current epoch: per-lane buffers of prepared submissions, the total
	// buffered count, each client's lane affinity within the epoch, and
	// the buffered completions awaiting the next install pass.
	lanes  [][]pendingSub
	bufN   int
	laneOf map[action.ClientID]int
	comps  []pendingComp

	// spanning holds the global Seqs of live cross-lane entries — the
	// "bridges" whose presence in the uncommitted queue makes lane-
	// segment walks incomplete. While any is live, epochs flush one job
	// at a time through SubmitPrepared; installs pop the settled prefix.
	spanning []uint64

	// Lane workers: one persistent goroutine per shard, fed closures per
	// flush phase. Stopped by Close.
	reqs []chan laneTask
	wg   sync.WaitGroup

	// views[w] is lane w's handle, the one a partitioned epoch's
	// parallel phases run on; built once.
	views []*core.Lane

	// Flush scratch, reused across epochs.
	jobs     []job
	lanePs   [][]*core.Pending
	laneIdxs [][]int
	active   []int
	laneNs   []int64

	// pendingOut holds replies produced by flushes inside Register/
	// Unregister, whose interface signatures cannot return output; the
	// next output-bearing call delivers them first, preserving order.
	pendingOut core.ServerOutput

	stats metrics.RouterStats

	// effLog records the effective order (Config.RecordHistory only):
	// the exact sequence of registrations, stamps, completions, and
	// ticks as applied to the shared engine. Replaying it through a
	// single-lane engine must reproduce every byte the router emitted —
	// the differential harness's ground truth.
	effLog []LogEntry
}

type pendingSub struct {
	from  action.ClientID
	msg   *wire.Submit
	nowMs float64
	p     *core.Pending
}

type pendingComp struct {
	from  action.ClientID
	m     *wire.Completion
	nowMs float64
}

// job is one epoch submission moving through the flush phases. Outputs
// accumulate per job so the final reply stream concatenates in merge
// order regardless of which phase produced which message.
type job struct {
	lane int
	p    *core.Pending
	plan core.ReplyPlan
	out  core.ServerOutput
}

// laneTask is one closure dispatched to a lane worker.
type laneTask struct {
	fn func()
	wg *sync.WaitGroup
}

// LogEntry is one step of the router's effective order.
type LogEntry struct {
	From  action.ClientID
	Msg   wire.Msg // nil for registrations, unregistrations, and ticks
	NowMs float64
	Join  bool
	Mask  uint64
	Leave bool
	Tick  bool
	// Snap marks a mid-session SnapshotCatchUp barrier for From.
	Snap bool
}

// New returns a sharded router over cfg.Shards lanes. The configuration
// must be valid, with Shards > 1 and Mode ≥ ModeIncomplete (use
// NewEngine for the general fallback).
func New(cfg core.Config, init *world.State) *Router {
	if cfg.Shards <= 1 {
		panic("shard: router requires Shards > 1")
	}
	if cfg.Mode == core.ModeBasic {
		panic("shard: ModeBasic has no analysis to shard")
	}
	cell := cfg.ShardCellSize
	if cell <= 0 {
		// The hybrid relay's neighbourhood cell: crowds closer than this
		// conflict anyway and belong on one lane.
		cell = cfg.NeighbourhoodCell()
	}
	r := &Router{
		cfg:      cfg,
		inner:    core.NewServer(cfg, init),
		own:      newOwnership(cell, cfg.Shards),
		n:        cfg.Shards,
		serial:   runtime.GOMAXPROCS(0) == 1,
		lanes:    make([][]pendingSub, cfg.Shards),
		laneOf:   make(map[action.ClientID]int),
		reqs:     make([]chan laneTask, cfg.Shards),
		lanePs:   make([][]*core.Pending, cfg.Shards),
		laneIdxs: make([][]int, cfg.Shards),
		laneNs:   make([]int64, cfg.Shards),
	}
	r.stats.Shards = cfg.Shards
	r.stats.PerLane = make([]metrics.LaneStats, cfg.Shards)
	r.inner.EnablePartition(cfg.Shards)
	for w := 0; w < cfg.Shards; w++ {
		r.views = append(r.views, r.inner.Lane(w))
		r.reqs[w] = make(chan laneTask, 8)
		r.wg.Add(1)
		go r.laneWorker(w)
	}
	return r
}

// Close stops the lane workers. The router must not be used afterwards.
func (r *Router) Close() {
	for _, ch := range r.reqs {
		close(ch)
	}
	r.wg.Wait()
}

// laneWorker is one shard's engine goroutine: it runs the closures its
// lane is fed, in order, for every flush phase.
func (r *Router) laneWorker(w int) {
	defer r.wg.Done()
	for t := range r.reqs[w] {
		t.fn()
		t.wg.Done()
	}
}

// runPhase runs fn(lane) for every active lane — independent work over
// lane-affine state — and credits the phase: every lane's time to total,
// the slowest lane's to the critical path. One active lane — or a
// single-threaded process — runs inline; otherwise each lane runs on its
// own worker. Either way the phase completes before runPhase returns,
// and lanes touch disjoint state, so the schedule never shows in the
// outputs.
func (r *Router) runPhase(active []int, total, crit *int64, fn func(lane int)) {
	durs := r.laneNs
	clear(durs)
	if len(active) == 1 || r.serial {
		for _, lane := range active {
			start := time.Now()
			fn(lane)
			durs[lane] = time.Since(start).Nanoseconds()
		}
	} else {
		var wg sync.WaitGroup
		for _, lane := range active {
			lane := lane
			wg.Add(1)
			r.reqs[lane] <- laneTask{fn: func() {
				start := time.Now()
				fn(lane)
				durs[lane] = time.Since(start).Nanoseconds()
			}, wg: &wg}
		}
		wg.Wait()
	}
	var slowest int64
	for _, d := range durs {
		*total += d
		slowest = max(slowest, d)
	}
	*crit += slowest
}

// planLane plans jobs[idxs] in order through h with the lane-local sent
// overlay: positions already planned into a batch for the same client
// earlier in this epoch count as sent even though their bits are only
// applied at commit. Clients never span lanes within an epoch, so the overlay —
// and therefore every plan — is independent of the other lanes.
//
// The overlay only matters between two plans for the same client, which
// is rare (a client resubmitting within one epoch), so its map traffic
// is gated on a same-client pre-scan: the common all-distinct-clients
// epoch plans with no overlay reads or writes at all.
func (r *Router) planLane(h *core.Lane, jobs []job, idxs []int) {
	type ovKey struct {
		cid action.ClientID
		pos int
	}
	var ov map[ovKey]struct{}
	for k, i := range idxs {
		p := jobs[i].p
		cid := p.From()
		var overlay func(pos int) bool
		if ov != nil {
			overlay = func(pos int) bool {
				_, ok := ov[ovKey{cid, pos}]
				return ok
			}
		}
		jobs[i].plan = h.Plan(p, overlay)
		laterSame := false
		for _, j := range idxs[k+1:] {
			if jobs[j].p.From() == cid {
				laterSame = true
				break
			}
		}
		if laterSame {
			if ov == nil {
				ov = make(map[ovKey]struct{})
			}
			for _, pos := range jobs[i].plan.Positions() {
				ov[ovKey{cid, pos}] = struct{}{}
			}
		}
	}
}

// record appends one effective-order step (RecordHistory only).
func (r *Router) record(le LogEntry) {
	if r.cfg.RecordHistory {
		r.effLog = append(r.effLog, le)
	}
}

// EffectiveLog returns the recorded effective order. Requires
// Config.RecordHistory; the slice is owned by the router.
func (r *Router) EffectiveLog() []LogEntry { return r.effLog }

// RegisterClient announces a client. Registrations are barriers: slot
// and cursor assignment must interleave with stamping in a reproducible
// order, so the pending epoch flushes first. The flushed replies are
// delivered with the next output (transports dispatch every output).
func (r *Router) RegisterClient(id action.ClientID, interestMask uint64) {
	r.pendingOut = r.flushInto(r.pendingOut, &r.stats.BarrierFlushes)
	r.record(LogEntry{From: id, Join: true, Mask: interestMask})
	r.inner.RegisterClient(id, interestMask)
}

// UnregisterClient removes a client, flushing the pending epoch first
// (its buffered submissions may be the client's own).
func (r *Router) UnregisterClient(id action.ClientID) {
	r.pendingOut = r.flushInto(r.pendingOut, &r.stats.BarrierFlushes)
	r.record(LogEntry{From: id, Leave: true})
	r.inner.UnregisterClient(id)
}

// HandleMsg dispatches one client message. Submissions are routed and
// buffered (or flushed through, for cross-shard footprints);
// completions are buffered for the next flush's install pass;
// everything else is a barrier that flushes the epoch and then runs
// against the settled shared state.
func (r *Router) HandleMsg(from action.ClientID, msg wire.Msg, nowMs float64) core.ServerOutput {
	switch m := msg.(type) {
	case *wire.Submit:
		return r.handleSubmit(from, m, nowMs)
	case *wire.Completion:
		return r.handleCompletion(from, m, nowMs)
	}
	out := r.takePending()
	out = r.flushInto(out, &r.stats.BarrierFlushes)
	r.record(LogEntry{From: from, Msg: msg, NowMs: nowMs})
	return mergeOut(out, r.inner.HandleMsg(from, msg, nowMs))
}

// handleCompletion buffers a completion for the next flush's install
// pass. Completions produce no replies and their effects — installs —
// are applied at the head of every flush, so the effective order the
// router records (and the differential harness replays) is completions
// first, then the epoch's stamps. Batching them turns per-message
// install cascades into one contiguous pass and keeps epochs from
// being broken up by result traffic.
func (r *Router) handleCompletion(from action.ClientID, m *wire.Completion, nowMs float64) core.ServerOutput {
	out := r.takePending()
	r.comps = append(r.comps, pendingComp{from: from, m: m, nowMs: nowMs})
	if len(r.comps) >= maxEpochComps {
		out = r.flushInto(out, &r.stats.SizeFlushes)
	}
	return out
}

func (r *Router) handleSubmit(from action.ClientID, m *wire.Submit, nowMs float64) core.ServerOutput {
	out := r.takePending()
	p := r.inner.PrepareSubmit(from, m, nowMs)
	lane, spanning := r.routePending(p)
	p.SetLane(lane)
	if spanning {
		r.stats.SpanningActions++
	}
	if lane < 0 {
		// Cross-shard (or footprint-free) submission: close the epoch,
		// then run it as an epoch of its own on the global view — the
		// fully sequential path every shard observes, since it runs
		// between epochs on the shared engine. A genuinely spanning entry
		// becomes a bridge: its Seq joins the FIFO that keeps epochs on
		// the global view until it installs.
		out = r.flushInto(out, &r.stats.CrossShardFlushes)
		r.stats.CrossShardActions++
		r.record(LogEntry{From: from, Msg: m, NowMs: nowMs})
		var so core.ServerOutput
		if r.inner.SubmitPrepared(p, &so) && spanning {
			r.spanning = append(r.spanning, p.Seq())
		}
		return mergeOut(out, so)
	}
	if prev, ok := r.laneOf[from]; ok && prev != lane {
		// A client switching lanes mid-epoch would let its reply state
		// cross lanes; close the epoch instead.
		out = r.flushInto(out, &r.stats.LaneSwitchFlushes)
	}
	r.laneOf[from] = lane
	r.lanes[lane] = append(r.lanes[lane], pendingSub{from: from, msg: m, nowMs: nowMs, p: p})
	r.bufN++
	r.stats.LocalActions++
	r.stats.PerLane[lane].Actions++
	if r.bufN >= maxEpochSubs {
		out = r.flushInto(out, &r.stats.SizeFlushes)
	}
	return out
}

// routePending resolves the owner of the prepared submission's
// interned RS ∪ WS footprint: the owning lane when a single shard owns
// everything, -1 otherwise — with spanning reporting whether the
// footprint genuinely touched two lanes (an empty footprint rides the
// global lane too, but conflicts with nothing and is no bridge).
func (r *Router) routePending(p *core.Pending) (lane int, spanning bool) {
	r.own.grow(r.inner.InternedObjects())
	rsd, wsd := p.Footprint()
	pos, hasPos := p.Influence()
	lane = -1
	for _, o := range wsd {
		l := r.own.ownerOf(o, r.inner.ObjectIDOf(o), hasPos, pos)
		if lane < 0 {
			lane = l
		} else if l != lane {
			return -1, true
		}
	}
	for _, o := range rsd {
		l := r.own.ownerOf(o, r.inner.ObjectIDOf(o), hasPos, pos)
		if lane < 0 {
			lane = l
		} else if l != lane {
			return -1, true
		}
	}
	return lane, false
}

// HandleResume answers a reconnecting client (core.Resumer). Resumes
// are barriers like every non-Submit message: the pending epoch
// flushes first, so the inner engine's CatchUp — and in particular the
// snapshot's install-point cut — is computed over settled state at an
// epoch boundary, and the recorded log replays it at exactly the same
// point (the single-lane engine handles the logged wire.Resume through
// its own HandleMsg case).
func (r *Router) HandleResume(m *wire.Resume, nowMs float64) (action.ClientID, core.ServerOutput) {
	out := r.takePending()
	out = r.flushInto(out, &r.stats.BarrierFlushes)
	r.record(LogEntry{Msg: m, NowMs: nowMs})
	cid, so := r.inner.HandleResume(m, nowMs)
	return cid, mergeOut(out, so)
}

// SessionToken returns the resume token for a registered client (see
// core.Server.SessionToken).
func (r *Router) SessionToken(id action.ClientID) uint64 { return r.inner.SessionToken(id) }

// SnapshotCatchUp issues a mid-session blind-write catch-up
// (core.Superseder). Like a resume, it is an epoch barrier: the pending
// epoch flushes first so the snapshot cuts settled state, and the
// recorded Snap entry replays the call at exactly the same point.
func (r *Router) SnapshotCatchUp(id action.ClientID, nowMs float64) core.ServerOutput {
	out := r.takePending()
	out = r.flushInto(out, &r.stats.BarrierFlushes)
	r.record(LogEntry{From: id, NowMs: nowMs, Snap: true})
	return mergeOut(out, r.inner.SnapshotCatchUp(id, nowMs))
}

// Quarantined reports whether the inner engine holds an integrity
// quarantine verdict against the client.
func (r *Router) Quarantined(id action.ClientID) bool { return r.inner.Quarantined(id) }

// Tick runs the First Bound push cycle over settled state: the epoch
// flushes first (its actions belong to the push window), then the
// inner scheduler takes over.
func (r *Router) Tick(nowMs float64) core.ServerOutput {
	out := r.takePending()
	out = r.flushInto(out, &r.stats.BarrierFlushes)
	r.record(LogEntry{Tick: true, NowMs: nowMs})
	return mergeOut(out, r.inner.Tick(nowMs))
}

// Flush closes the current epoch and returns its replies. Transports
// call this whenever their event queue drains, so buffered replies are
// not held hostage to the next message or tick.
func (r *Router) Flush() core.ServerOutput {
	out := r.takePending()
	return r.flushInto(out, &r.stats.ExternalFlushes)
}

// takePending claims any replies owed from interface calls that could
// not return them.
func (r *Router) takePending() core.ServerOutput {
	out := r.pendingOut
	r.pendingOut = core.ServerOutput{}
	return out
}

// flushInto closes the current epoch, if non-empty, appending its
// replies to out in merge order and crediting the flush to cause. The
// buffered completions install first; the buffered submissions then run
// the pipeline partitioned — one view per lane — when every live queue
// entry is lane-owned, or one by one through the single-lane path (a
// fallback epoch) while a spanning bridge is live.
func (r *Router) flushInto(out core.ServerOutput, cause *int) core.ServerOutput {
	if r.bufN == 0 && len(r.comps) == 0 {
		return out
	}
	*cause++
	r.installComps()
	// Quarantine verdicts drain right after the install pass, before
	// any stamp replies — completions are recorded in the effective log
	// ahead of the epoch's stamps, so a single-lane replay of the log
	// emits the verdicts in the same per-client order.
	r.inner.DrainQuarantines(&out)
	if r.bufN == 0 {
		return out
	}
	r.stats.Epochs++
	if r.inner.Partitioned() && len(r.spanning) == 0 {
		r.stats.PartitionedEpochs++
		out = r.flushEpoch(out)
	} else {
		r.stats.FallbackEpochs++
		out = r.flushSeq(out)
	}
	r.bufN = 0
	clear(r.laneOf)
	return out
}

// installComps applies the buffered completions — recorded in the
// effective order ahead of the epoch's stamps — and installs the
// contiguous prefix. Bridges whose entries settled pop off the spanning
// FIFO.
func (r *Router) installComps() {
	if len(r.comps) == 0 {
		return
	}
	start := time.Now()
	for _, c := range r.comps {
		r.record(LogEntry{From: c.from, Msg: c.m, NowMs: c.nowMs})
		r.inner.TakeCompletion(c.from, c.m)
	}
	r.comps = r.comps[:0]
	r.inner.InstallContiguous()
	for len(r.spanning) > 0 && r.spanning[0] <= r.inner.Installed() {
		r.spanning = r.spanning[1:]
	}
	ns := time.Since(start).Nanoseconds()
	r.stats.InstallNs += ns
	r.stats.InstallCritNs += ns
}

// flushSeq runs a fallback epoch: a spanning bridge is live, so a
// lane-segment walk could miss it, and each buffered job runs the
// single-lane path (SubmitPrepared) in the merge order flushEpoch uses —
// exactly what a single-lane engine replaying the effective log does.
// Nothing in it parallelizes, so its time is charged to the stamp
// phase's total and critical path alike.
func (r *Router) flushSeq(out core.ServerOutput) core.ServerOutput {
	start := time.Now()
	for lane, buf := range r.lanes {
		for _, ps := range buf {
			r.record(LogEntry{From: ps.from, Msg: ps.msg, NowMs: ps.nowMs})
			r.inner.SubmitPrepared(ps.p, &out)
		}
		r.lanes[lane] = buf[:0]
	}
	ns := time.Since(start).Nanoseconds()
	r.stats.StampNs += ns
	r.stats.StampCritNs += ns
	return out
}

// flushEpoch runs the buffered submissions through the six pipeline
// phases (core/pipeline.go):
//
//	Lane.Stamp*  — view-affine stamping: dedup, bounds, validity over
//	               the view, enqueue+index in its segment
//	SealStamp    — global Seqs, queue/index/history, counters, Drop
//	               replies, in merge order              (sequential)
//	Lane.Plan*   — Algorithm 6 closure walks per lane   (parallel)
//	PreCommit    — blind-write ids in merge order       (sequential)
//	Lane.Commit* — sent() marks, batch assembly, per-client sequencing
//	SealCommit   — reply emission in merge order        (sequential)
//
// The starred phases run through each lane's own core.Lane handle
// (views), one task per lane, in parallel: a handle reaches only its
// lane's segment. Every output whose cross-lane order is observable is
// fixed by the sequential merges, so the bytes are identical to the
// single lane's.
func (r *Router) flushEpoch(out core.ServerOutput) core.ServerOutput {
	jobs := r.jobs[:0]
	stampActive := r.active[:0]
	maxLane := 0
	for lane := 0; lane < r.n; lane++ {
		buf := r.lanes[lane]
		if len(buf) == 0 {
			continue
		}
		stampActive = append(stampActive, lane)
		maxLane = max(maxLane, len(buf))
		for _, ps := range buf {
			r.record(LogEntry{From: ps.from, Msg: ps.msg, NowMs: ps.nowMs})
			r.lanePs[lane] = append(r.lanePs[lane], ps.p)
			jobs = append(jobs, job{lane: lane, p: ps.p})
		}
		r.lanes[lane] = r.lanes[lane][:0]
	}

	imb := float64(maxLane) * float64(r.n) / float64(len(jobs))
	r.stats.LaneImbalance += (imb - r.stats.LaneImbalance) / float64(r.stats.PartitionedEpochs)
	r.runPhase(stampActive, &r.stats.StampNs, &r.stats.StampCritNs, func(lane int) {
		r.views[lane].Stamp(r.lanePs[lane])
	})

	start := time.Now()
	for i := range jobs {
		if !r.inner.SealStamp(jobs[i].p, &jobs[i].out) {
			jobs[i].p = nil
		}
	}
	r.stats.MergeNs += time.Since(start).Nanoseconds()

	r.planJobs(jobs)

	start = time.Now()
	for i := range jobs {
		if jobs[i].p != nil {
			r.inner.PreCommit(jobs[i].p, &jobs[i].plan)
		}
	}
	r.stats.MergeNs += time.Since(start).Nanoseconds()

	r.runPhase(r.active, &r.stats.CommitNs, &r.stats.CommitCritNs, func(lane int) {
		for _, i := range r.laneIdxs[lane] {
			r.views[lane].Commit(jobs[i].p, &jobs[i].plan)
		}
	})

	start = time.Now()
	for i := range jobs {
		if jobs[i].p != nil {
			r.inner.SealCommit(jobs[i].p, &jobs[i].plan, &jobs[i].out)
		}
		out = mergeOut(out, jobs[i].out)
		jobs[i] = job{}
	}
	r.stats.MergeNs += time.Since(start).Nanoseconds()

	// Every lane, not stampActive: planJobs rebuilt r.active over the
	// array stampActive was collected in, so a lane whose jobs were all
	// refused is no longer in it — and a pending left behind would be
	// stamped again by the lane's next epoch.
	for lane := range r.lanePs {
		r.lanePs[lane] = r.lanePs[lane][:0]
	}
	r.jobs = jobs[:0]
	return out
}

// planJobs fans the accepted jobs' reply planning out by lane, leaving
// the accepted per-lane index lists in r.laneIdxs and the accepted
// lanes in r.active for the commit fan-out to reuse.
func (r *Router) planJobs(jobs []job) {
	for lane := range r.laneIdxs {
		r.laneIdxs[lane] = r.laneIdxs[lane][:0]
	}
	active := r.active[:0]
	for i := range jobs {
		if jobs[i].p == nil {
			continue // dropped, duplicate, or answered inline
		}
		lane := jobs[i].lane
		if len(r.laneIdxs[lane]) == 0 {
			active = append(active, lane)
		}
		r.laneIdxs[lane] = append(r.laneIdxs[lane], i)
	}
	r.active = active
	if len(active) > 1 {
		for _, lane := range active {
			r.stats.ParallelPlans += len(r.laneIdxs[lane])
		}
	}
	r.runPhase(active, &r.stats.PlanNs, &r.stats.PlanCritNs, func(lane int) {
		r.planLane(r.views[lane], jobs, r.laneIdxs[lane])
	})
}

// mergeOut appends b's replies and counters to a, preserving order.
func mergeOut(a, b core.ServerOutput) core.ServerOutput {
	if len(a.Replies) == 0 && a.QueueScanned == 0 && !a.Dropped {
		return b
	}
	a.Replies = append(a.Replies, b.Replies...)
	a.QueueScanned += b.QueueScanned
	a.Dropped = a.Dropped || b.Dropped
	return a
}

// Installed returns the serial position up to which ζS is complete
// (buffered completions not yet installed are excluded; Flush first to
// settle).
func (r *Router) Installed() uint64 { return r.inner.Installed() }

// Authoritative returns ζS.
func (r *Router) Authoritative() *world.State { return r.inner.Authoritative() }

// History returns the stamped envelopes in merge order (requires
// Config.RecordHistory). Flush first for a settled view.
func (r *Router) History() []action.Envelope { return r.inner.History() }

// QueueLen reports the number of uncommitted actions (buffered
// submissions not yet stamped are excluded; Flush first to settle).
func (r *Router) QueueLen() int { return r.inner.QueueLen() }

// Metrics snapshots the shared engine's cumulative counters.
func (r *Router) Metrics() metrics.ServerStats { return r.inner.Metrics() }

// RouterMetrics snapshots the router's own counters: routing, epochs,
// flush causes, pipeline phase timings, and per-lane load.
func (r *Router) RouterMetrics() metrics.RouterStats {
	st := r.stats
	st.PerLane = make([]metrics.LaneStats, r.n)
	copy(st.PerLane, r.stats.PerLane)
	for lane := range st.PerLane {
		st.PerLane[lane].OwnedObjects = r.own.perLane[lane]
	}
	return st
}

// SetJournal registers the durable commit feed on the shared engine.
// Install passes flushed by the router produce one CommitGroup each.
// The lane workers call no journal method (see core.Journal).
func (r *Router) SetJournal(j core.Journal) { r.inner.SetJournal(j) }

// Restore rewinds the router's shared engine to a recovered durable
// point. Must be called before any client traffic.
func (r *Router) Restore(rec core.RestoreState) { r.inner.Restore(rec) }

// Boot reports the recovery generation of the shared engine.
func (r *Router) Boot() uint64 { return r.inner.Boot() }

// Engine conformance (plus the Flusher, Resumer, and Superseder
// extensions).
var (
	_ core.Engine     = (*Router)(nil)
	_ core.Flusher    = (*Router)(nil)
	_ core.Resumer    = (*Router)(nil)
	_ core.Superseder = (*Router)(nil)
)
