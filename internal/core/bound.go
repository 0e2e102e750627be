package core

import (
	"runtime"
	"slices"
	"sync"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/world"
)

// Tick runs the First Bound push cycle (Section III-D): "at regular
// intervals of ω·RTT time, the server sends to each client C all actions
// submitted in the previous ω·RTT that could possibly affect any of C's
// future actions". The transport adapter calls Tick every
// Config.PushIntervalMs milliseconds in ModeFirstBound and above.
//
// Eligibility of action A for client C is Equation (1):
//
//	‖p̄A − p̄C‖ ≤ 2s·(1+ω)·RTT + rC + rA
//
// refined by area culling (Section IV-B) for actions that carry a
// velocity vector, and by interest-class elimination (Section IV-A) when
// enabled. Actions already sent to C — including everything C received
// in closure replies — are skipped via the sent(a) bookkeeping shared
// with Algorithm 6.
//
// Planning reads the push window through a per-tick entry grid
// (grid.go): a client tests only the entries in the 3×3 cells around its
// own, plus those the grid cannot place, instead of the whole window.
//
// The cycle is a plan/commit scheduler over recipient groups
// (pushGroups): each live client alone, or under HybridRelay the clients
// of one relay cell (hybrid.go). Planning — the members' eligibility
// tests plus one Algorithm 6 closure walk per group — only reads engine
// state (the grid is built before the fan-out), so it fans out over a
// bounded worker pool (pushWorkerCount). The commit phase then applies
// every plan in group order: sent() marks, blind-write ids, per-client
// batch sequence numbers, replies, counters. Because plans for different
// groups are independent (sent() is per-client, groups are disjoint and
// nothing else mutates during planning), the output is byte-identical
// whatever the pool width — TestTickParallelDeterminism holds the
// scheduler to that.
func (s *Server) Tick(nowMs float64) ServerOutput {
	var out ServerOutput
	if s.cfg.Mode < ModeFirstBound {
		return out
	}
	window := s.pushWindow(nowMs)
	if len(window) == 0 || len(s.live) == 0 {
		return out
	}

	s.stats.PushTicks++
	s.buildPushGrid(window, s.live)
	groups := s.pushGroups()
	if cap(s.plans) < len(groups) {
		s.plans = make([]ReplyPlan, len(groups))
	}
	plans := s.plans[:len(groups)]
	workers := s.pushWorkerCount(len(groups))
	if workers <= 1 {
		sc := s.scratchFor(0)
		for i, members := range groups {
			plans[i] = s.planPush(members, window, nowMs, sc)
		}
	} else {
		s.stats.PushParallelTicks++
		// Grow the scratch pool before fan-out: scratchFor appends to
		// s.scratch, which must not happen concurrently.
		s.scratchFor(workers - 1)
		tasks := make([]func(), workers)
		for w := 0; w < workers; w++ {
			tasks[w] = func() {
				sc := s.scratchFor(w)
				for i := w; i < len(groups); i += workers {
					plans[i] = s.planPush(groups[i], window, nowMs, sc)
				}
			}
		}
		s.runPlanTasks(tasks)
	}

	for i, members := range groups {
		s.commitPush(members, &plans[i], &out)
	}
	// The replies own their slices; zeroing the reused plans keeps none
	// of them reachable from the next tick.
	clear(plans)
	return out
}

// pushWindow advances the push clock to nowMs and returns the queue
// positions stamped since the previous tick, in ascending order. The
// slice is reused across ticks.
func (s *Server) pushWindow(nowMs float64) []int {
	windowStart := s.lastPushMs
	s.lastPushMs = nowMs
	window := s.tickWindow[:0]
	for i, e := range s.queue {
		if e.stampedMs > windowStart && e.stampedMs <= nowMs {
			window = append(window, i)
		}
	}
	s.tickWindow = window
	return window
}

// runPlanTasks executes read-only planning tasks, one goroutine each.
func (s *Server) runPlanTasks(tasks []func()) {
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(t func()) {
			defer wg.Done()
			t()
		}(t)
	}
	wg.Wait()
}

// ReplyPlan is the read-only result of planning one batch — a
// submission reply (Lane.Plan) or one recipient group's First Bound push
// (planPush): the batch positions and blind-write payload computed by
// the closure walk. Plans hold no references into mutable engine state,
// which is what lets both schedulers compute them on worker goroutines
// and commit them sequentially.
type ReplyPlan struct {
	// positions is empty for a push plan that found nothing to send.
	positions []int
	writes    []world.Write
	// envs is the pre-assembled envelope sequence (planEnvs): slot 0
	// reserved for the blind write, positions' envelopes after it.
	envs  []action.Envelope
	stats walkStats
	// footprint is the batch's covered-object set (planFootprint) — the
	// supersession metadata the transport's delivery queue uses for
	// per-client staleness accounting (DESIGN.md §13).
	footprint []world.ObjectID
}

// Positions returns the queue positions the planned batch will carry,
// in ascending serial order. The shard lanes feed them into their sent()
// overlays; callers must not mutate the slice.
func (p *ReplyPlan) Positions() []int { return p.positions }

// pushWorkerCount resolves the pool width for n groups: up to
// GOMAXPROCS workers, but sequential for small group sets where
// fan-out overhead would dominate. A width forced by a test (pushWidth)
// is honored, capped at n.
func (s *Server) pushWorkerCount(n int) int {
	w := s.pushWidth
	if w == 0 {
		if n < 16 {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// planPush plans one recipient group's push: the union, in window order,
// of its members' push seeds (pushSeeds), walked with sentToAll as the
// closure's already(). Read-only apart from its private scratch, so it is
// safe on a worker goroutine: the queue, the entry grid, the conflict
// index, the interner, ζS, and the sent() bitmaps are all frozen for the
// duration of the planning phase.
func (s *Server) planPush(members []*clientRec, window []int, nowMs float64, sc *closureScratch) ReplyPlan {
	var st walkStats
	seeds := sc.seeds[:0]
	for _, rec := range members {
		seeds = s.pushSeeds(seeds, rec, window, nowMs, sc, &st)
	}
	if len(members) > 1 {
		slices.Sort(seeds)
		seeds = slices.Compact(seeds)
	}
	sc.seeds = seeds
	if len(seeds) == 0 {
		return ReplyPlan{stats: st}
	}
	v := s.segment.view()
	p := s.planBatch(&v, seeds, sc, sentToAll(members))
	p.stats.pushTests, p.stats.gridLookups = st.pushTests, st.gridLookups
	return p
}

// commitPush applies one group's plan: marks the batch entries sent,
// mints the blind-write id, stamps the per-client batch sequence, and
// emits a Batch to a lone member or a Relay to a cell (commitRelay). Runs
// on the engine goroutine in group order, which is what makes the
// scheduler's output independent of the pool width.
func (s *Server) commitPush(members []*clientRec, p *ReplyPlan, out *ServerOutput) {
	s.noteWalk(p.stats, out)
	if len(p.positions) == 0 {
		return
	}
	if len(members) > 1 {
		out.Replies = append(out.Replies, s.commitRelay(members, p))
		return
	}
	v := s.segment.view()
	out.Replies = append(out.Replies, s.commitPlan(&v, members[0], p, s.mintBlind(p), s.installed, true))
}

// pushEligible decides whether entry e could affect a future action of
// the client described by ci.
func (s *Server) pushEligible(e *entry, ci *clientInfo, nowMs float64) bool {
	// Inconsequential action elimination: skip classes the client did not
	// subscribe to. Class 0 and a zero mask mean "always interesting".
	if s.cfg.InterestFilter && e.class != 0 && ci.interest != 0 {
		if ci.interest&(1<<e.class) == 0 {
			return false
		}
	}
	if !e.hasPos || !ci.hasPos {
		// No spatial information: conservatively reachable.
		return true
	}
	rC := s.clientRadius(ci)
	if s.cfg.AreaCulling && e.hasVel {
		dt := e.stampedMs - ci.posAtMs
		return geom.MovingInfluenceReachable(
			e.pos, e.vel, ci.pos, rC, s.cfg.MaxSpeed, s.cfg.Omega, s.cfg.RTTMs, dt)
	}
	return geom.InfluenceReachable(
		e.pos, ci.pos, e.radius, rC, s.cfg.MaxSpeed, s.cfg.Omega, s.cfg.RTTMs)
}

// clientRadius is rC, the client's action radius in Equation (1): the
// largest radius it has declared, DefaultRadius until it declares one.
func (s *Server) clientRadius(ci *clientInfo) float64 {
	if ci.radius == 0 {
		return s.cfg.DefaultRadius
	}
	return ci.radius
}
