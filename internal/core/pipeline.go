package core

import (
	"slices"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/integrity"
	"seve/internal/wire"
	"seve/internal/world"
)

// The submit pipeline: the one way a submission becomes a stamped action
// and a closure reply. Six phases, alternating between work that is
// confined to one view of the queue and sequential merges that apply
// everything whose order across views is observable:
//
//	StampLane* → SealStamp → PlanReply* → PreCommit → CommitLane* → SealCommit
//
// A view is a segment of the uncommitted queue with its conflict index:
// a lane's (view ≥ 0) or the global queue (view −1). The starred phases
// touch only view-affine state: the view's segment and writer rows, the
// pending's entry, and the submitting client's record (the router pins
// each client to one lane per epoch). The Seal/PreCommit passes own
// everything shared — global Seqs, blind-write ids, counters, history,
// the reply order — and run in the deterministic merge order (epoch,
// lane, lane-local arrival).
//
// HandleSubmit is the one-job epoch on the global view (SubmitPrepared).
// The shard router (shard/router.go) runs many-job epochs: with every
// live queue entry lane-owned, one view per lane and the starred phases
// on parallel lane workers; while a spanning ("bridge") entry is live,
// every job on the global view with stamp and commit as one sequential
// task. Either way the observable outputs are byte-identical to
// submitting the jobs one by one in merge order (TestShardedEquivalence,
// TestLanePipelineMatchesSequential).
//
// A partitioned engine (EnablePartition) mirrors the uncommitted queue
// into per-lane segments: every accepted lane-local action lives in the
// global queue under its global Seq and in its owner lane's segment
// under a lane-local laneSeq. Because the router's routing guarantees a
// lane-local action's whole footprint is owned by one lane, and because
// the router stamps on the global view while any bridge is live, an
// analysis walk seeded in lane L can never leave L's segment — the lane
// view visits exactly the entries the global view would have acted on,
// in the same relative order, so closures, validity chains, and blind
// writes come out identical.

// Pending is a prepared submission moving through the pipeline phases.
// The staging fields let the view-affine phases compute their outcomes
// (on worker goroutines, under the router) and the sequential merges
// apply the shared-state deltas in merge order.
type Pending struct {
	e *entry
	// rec is the submitter's record, resolved once at prepare time on the
	// engine goroutine; the view-affine phases reach the client's slot,
	// session, ledger and registration through it and touch no map.
	rec   *clientRec
	nowMs float64
	// pos is the queue index at stamp time, into the view viewLane
	// selects. It stays valid until the next completion installs the
	// queue head, which cannot happen between a stamp and its commit
	// (installs run at the head of a flush, stamps and commits after).
	pos int
	// viewLane is the view the pending was stamped on, and the one its
	// plan and commit run over: a lane index, or -1 for the global queue.
	viewLane int
	// lane is the owner lane routing computed at buffer time (-1 for
	// spanning and empty-footprint submissions); a stamp on the global
	// view still mirrors into it so the lane segments stay complete.
	lane int

	// Stamp outcome, staged by StampLane for SealStamp to count and
	// answer in merge order: a session duplicate, an influence-bound
	// violation, an Information Bound drop, and the validity walk's cost.
	dup        bool
	bound      integrity.Violation
	dropped    bool
	stampStats walkStats

	// blind is the blind-write id PreCommit mints in merge order.
	blind action.ID
	// reply is the Batch staged by CommitLane for SealCommit to emit.
	reply Reply
}

// Seq returns the stamped global serial position.
func (p *Pending) Seq() uint64 { return p.e.env.Seq }

// From returns the submitting client.
func (p *Pending) From() action.ClientID { return p.rec.id }

// Footprint returns the prepared entry's interned read and write sets,
// the router's routing key. Callers must not mutate the slices.
func (p *Pending) Footprint() (rsd, wsd []uint32) { return p.e.rsd, p.e.wsd }

// SetLane records the owner lane routing resolved for p (-1 for a
// spanning footprint).
func (p *Pending) SetLane(lane int) { p.lane = lane }

// Influence returns the prepared action's declared influence centre,
// when the declaration is meaningful for spatial routing (a positive
// radius or a non-origin centre — the same test noteClientPosition
// applies before trusting a position).
func (p *Pending) Influence() (geom.Vec, bool) {
	e := p.e
	if !e.hasPos || (e.radius <= 0 && e.pos == (geom.Vec{})) {
		return geom.Vec{}, false
	}
	return e.pos, true
}

// InternedObjects reports the dense-index universe size: every index a
// Footprint can yield is below it.
func (s *Server) InternedObjects() int { return s.intern.Len() }

// ObjectIDOf returns the sparse ObjectID behind dense index o.
func (s *Server) ObjectIDOf(o uint32) world.ObjectID { return s.intern.ID(o) }

// EnablePartition mirrors engine state into n per-lane segments and
// partitions ζS for segment-parallel installs. The shard router calls
// it once at construction, before any submission; it requires an empty
// queue and an incomplete-world mode (ModeBasic keeps no queue to
// partition).
//
//seve:lane-seal
func (s *Server) EnablePartition(n int) {
	if n < 2 || s.cfg.Mode < ModeIncomplete {
		return
	}
	if len(s.queue) != 0 {
		panic("core: EnablePartition on a non-empty queue")
	}
	s.lanes = make([]segment, n)
	s.zs.Partition(n)
	s.growWriters()
}

// Partitioned reports whether per-lane segments are maintained.
//
//seve:lane-seal
func (s *Server) Partitioned() bool { return s.lanes != nil }

// seg resolves a view to its segment.
//
//seve:lane-affine
func (s *Server) seg(view int) *segment {
	if view < 0 {
		return &s.segment
	}
	return &s.lanes[view]
}

// HandleSubmit processes a newly submitted action: Algorithm 2 step 2 in
// ModeBasic, Algorithm 5 step 3 plus the Algorithm 7 validity check in
// the higher modes.
func (s *Server) HandleSubmit(from action.ClientID, m *wire.Submit, nowMs float64) ServerOutput {
	var out ServerOutput
	s.SubmitPrepared(s.PrepareSubmit(from, m, nowMs), &out)
	return out
}

// PrepareSubmit builds the entry for a submission on the sequential
// buffering path: envelope capture, spatial metadata, read/write-set
// interning, and the submitter's record with its sent slot. Everything
// order-sensitive — duplicate detection, validity, serial stamping —
// happens in the pipeline phases, so the router can buffer prepared
// submissions and route them by their interned footprints before any of
// that runs.
func (s *Server) PrepareSubmit(from action.ClientID, m *wire.Submit, nowMs float64) *Pending {
	env := m.Env
	env.Origin = from // trust the connection, not the payload
	e := newEntry(env, nowMs)
	if s.cfg.Mode >= ModeIncomplete {
		s.internEntry(e)
	}
	rec := s.recordOf(from)
	s.claimSlot(rec)
	return &Pending{e: e, rec: rec, nowMs: nowMs, viewLane: -1, lane: -1}
}

// SubmitPrepared runs p through the six phases as an epoch of its own on
// the global view — the fully sequential path, which every view observes
// because it runs between epochs on the shared engine. It reports
// whether p was stamped (and answered with a closure batch); each call
// takes the next serial position, so calls must come in a reproducible
// order.
//
//seve:lane-seal
func (s *Server) SubmitPrepared(p *Pending, out *ServerOutput) bool {
	s.StampLane(-1, []*Pending{p})
	if !s.SealStamp(p, out) {
		return false
	}
	plan := s.PlanReply(p, 0, nil)
	s.PreCommit(p, &plan)
	s.CommitLane(p, &plan)
	s.SealCommit(p, &plan, out)
	return true
}

// StampLane runs the view-affine half of stamping for ps, in order:
// duplicate detection, the per-client influence bounds, client-position
// notes, Algorithm 7 validity over the view, and enqueue+index of the
// accepted entries in the view's segment. Outcomes are staged on the
// pendings; SealStamp applies the shared-state half in merge order.
//
// On a lane view it may run on that lane's worker, concurrently with
// other lanes: it requires every pending's footprint to be owned by the
// lane and every submitting client to be pinned to it for the epoch. On
// the global view (-1) it assigns the global Seq itself, so it is one
// sequential task over all of an epoch's pendings in merge order — each
// sees the ones before it enqueued, exactly as if they had been
// submitted one by one.
//
//seve:lane-affine
func (s *Server) StampLane(view int, ps []*Pending) {
	g := s.seg(view)
	sc := s.scratchFor(max(view, 0))
	for _, p := range ps {
		e, rec := p.e, p.rec

		// With sessions enabled, swallow re-submissions of actions this
		// session already stamped (or dropped): after a reconnect the
		// resume re-send can race submissions still queued from the old
		// connection. Per-client action sequence numbers are strictly
		// monotonic, so anything at or below the session's high-water mark
		// is a duplicate.
		if sess := rec.sess; sess != nil {
			seq := e.env.Act.ID().Seq
			if seq <= sess.lastActSeq {
				p.dup = true
				continue
			}
			sess.lastActSeq = seq
		}

		if p.bound = s.boundsCheck(p); p.bound != integrity.OK {
			continue
		}

		noteClientPosition(rec, e, p.nowMs)

		if s.cfg.Mode >= ModeInfoBound {
			v := g.view()
			p.dropped, _, p.stampStats = s.validityWalk(&v, e.rsd, e.hasPos, e.pos, s.cfg.Threshold, sc)
			if p.dropped {
				continue
			}
		}

		// Timestamp a and put it into the queue (Algorithm 2 step 2a /
		// Algorithm 5 step 3a).
		p.viewLane = view
		if s.cfg.Mode == ModeBasic {
			// No queue, no sent(): the stamp is the serial position alone.
			g.nextSeq++
			e.env.Seq = g.nextSeq
			continue
		}
		if view < 0 {
			e.env.Seq = g.push(e)
		} else {
			e.lane, e.laneSeq = int32(view), g.push(e)
		}
		e.sent.set(rec.slot) // the origin trivially has its own action
		p.pos = len(g.queue) - 1
	}
}

// boundsCheck enforces the per-client influence bounds (DESIGN.md §16c)
// on a prepared submission: quarantine latch, token-bucket submit rate,
// write-set size cap, influence-radius cap. It reads only the pending's
// own record and entry, so lane workers may run it concurrently for
// distinct pendings; shared counters and replies are deferred to
// sealBound in merge order. The bucket spends on the deterministic
// engine clock carried by the pending, so verdicts replay identically
// through the effective log.
//
//seve:lane-affine
func (s *Server) boundsCheck(p *Pending) integrity.Violation {
	if s.noIntegrity {
		return integrity.OK
	}
	led := &p.rec.led
	if led.Quarantined {
		return integrity.ViolationQuarantined
	}
	if s.cfg.MaxSubmitRate > 0 && !led.Bucket.Allow(p.nowMs, s.cfg.MaxSubmitRate, s.cfg.SubmitBurst) {
		return integrity.ViolationRate
	}
	if s.cfg.MaxWriteSet > 0 && p.e.env.Act.WriteSet().Len() > s.cfg.MaxWriteSet {
		return integrity.ViolationWriteSet
	}
	if s.cfg.MaxInfluenceRadius > 0 && p.e.hasPos && p.e.radius > s.cfg.MaxInfluenceRadius {
		return integrity.ViolationRadius
	}
	return integrity.OK
}

// SealStamp applies the shared-state half of one pending's stamp, in
// merge order on the sequential path: counters, walk stats, the Drop
// reply, and history; for a lane-stamped pending the global Seq and the
// global queue/index, for a globally stamped one the mirror into its
// owner lane's segment (keeping the segments complete across global
// epochs — spanning entries, lane < 0, have no segment and are exactly
// the bridges that keep epochs global while live). It reports whether a
// reply plan is owed.
//
//seve:lane-seal
func (s *Server) SealStamp(p *Pending, out *ServerOutput) bool {
	s.stats.TotalSubmitted++
	if p.dup {
		s.stats.DuplicateSubmits++
		return false
	}
	if p.bound != integrity.OK {
		s.sealBound(p, out)
		return false
	}
	s.noteWalk(p.stampStats, out)
	if p.dropped {
		s.stats.TotalDropped++
		p.rec.dropped++
		s.replyDrop(p, out)
		return false
	}
	e := p.e
	if s.cfg.Mode == ModeBasic {
		s.log = append(s.log, e.env)
		s.replyBasic(p.rec, out)
		return false
	}
	switch {
	case p.viewLane >= 0:
		e.env.Seq = s.push(e)
	case s.lanes != nil && p.lane >= 0:
		e.lane, e.laneSeq = int32(p.lane), s.lanes[p.lane].push(e)
	}
	if s.cfg.RecordHistory {
		s.log = append(s.log, e.env)
	}
	return true
}

// sealBound applies the shared-state side of an influence-bound
// rejection: the violation counter and, except for already-quarantined
// clients (whose verdict said everything), a Drop reply so the origin
// aborts the action locally instead of waiting forever.
//
//seve:lane-seal
func (s *Server) sealBound(p *Pending, out *ServerOutput) {
	switch p.bound {
	case integrity.ViolationQuarantined:
		s.stats.QuarantineRejected++
		return
	case integrity.ViolationRate:
		s.stats.RateLimited++
	case integrity.ViolationWriteSet:
		s.stats.WriteSetViolations++
	case integrity.ViolationRadius:
		s.stats.RadiusViolations++
	}
	s.replyDrop(p, out)
}

// replyDrop answers a submission the stamp refused — an Information
// Bound drop or an influence-bound rejection — with a Drop, and records
// it in the session's drop ring so a resume catch-up reports it even if
// the Drop frame is lost. The only place the ring is written: a view's
// stamp stages the outcome, this seal pass records it once.
func (s *Server) replyDrop(p *Pending, out *ServerOutput) {
	id := p.e.env.Act.ID()
	if p.rec.sess != nil {
		p.rec.sess.recordDrop(id)
	}
	out.Dropped = true
	out.Replies = append(out.Replies, newReply(p.rec.id, &wire.Drop{ActID: id}, nil))
}

// replyBasic implements Algorithm 2 step 2b: "the server returns to C all
// actions between positions posC and pos(a), and sets posC = pos(a)".
func (s *Server) replyBasic(rec *clientRec, out *ServerOutput) {
	if !rec.registered {
		return
	}
	// log[i] has Seq i+1, so the slice (posC, nextSeq] is log[posC:nextSeq].
	envs := slices.Clone(s.log[rec.posC:s.nextSeq])
	rec.posC = s.nextSeq
	out.Replies = append(out.Replies, s.batchReply(rec, envs, false, nil))
}

// PlanReply computes the Algorithm 6 closure reply for p: the transitive
// closure of uncommitted actions affecting it, prefixed by a blind
// write. Planning is read-only apart from worker w's private scratch, so
// distinct pendings may plan concurrently on distinct workers over a
// frozen queue (grow the scratch pool with GrowScratch first).
//
// overlay, when non-nil, reports queue positions that an earlier plan in
// the same batch already included in a batch for p's client — those
// entries count as sent even though their sent() bits are only applied
// when that earlier plan commits. The shard lanes use it to keep
// plan-phase results identical to fully sequential processing.
//
//seve:lane-affine
func (s *Server) PlanReply(p *Pending, w int, overlay func(pos int) bool) ReplyPlan {
	slot := p.rec.slot
	already := sentTo(slot)
	if overlay != nil {
		already = func(j int, e *entry) bool { return e.sent.has(slot) || overlay(j) }
	}
	v := s.seg(p.viewLane).view()
	return s.planBatch(&v, []int{p.pos}, s.scratchFor(w), already)
}

// sentTo is the closure walk's already() for a single recipient.
func sentTo(slot int) func(int, *entry) bool {
	return func(_ int, e *entry) bool { return e.sent.has(slot) }
}

// planBatch plans one batch for a recipient: the closure walk over the
// seeds, the batch's envelopes, and its covered-object footprint. Pure
// reads over the frozen view apart from the private scratch.
func (s *Server) planBatch(v *walkView, seeds []int, sc *closureScratch, already func(int, *entry) bool) ReplyPlan {
	positions, writes, st := s.closureWalk(v, seeds, sc, already)
	return ReplyPlan{positions: positions, writes: writes,
		envs: planEnvs(v, positions), stats: st,
		footprint: s.planFootprint(v, positions, writes)}
}

// planFootprint collects the planned batch's covered-object set — the
// union of the blind write's targets and every batch entry's declared
// write set, as sorted deduplicated sparse ids. This is the supersession
// metadata (DESIGN.md §13) the transport's delivery queue charges to a
// slow client's staleness accounting. Read-only over the frozen view and
// the interner, so it runs on the planning worker with the walk.
func (s *Server) planFootprint(v *walkView, positions []int, writes []world.Write) []world.ObjectID {
	n := len(writes)
	for _, j := range positions {
		n += len(v.queue[j].wsd)
	}
	if n == 0 {
		return nil
	}
	fp := make([]world.ObjectID, 0, n)
	for _, w := range writes {
		fp = append(fp, w.ID)
	}
	for _, j := range positions {
		for _, o := range v.queue[j].wsd {
			fp = append(fp, s.intern.ID(o))
		}
	}
	slices.Sort(fp)
	return slices.Compact(fp)
}

// planEnvs copies the batch positions' envelopes on the planning worker
// — the O(batch) part of assembly — leaving envs[0] reserved for the
// blind write commitPlan may place. Pure reads over the frozen view.
func planEnvs(v *walkView, positions []int) []action.Envelope {
	envs := make([]action.Envelope, len(positions)+1)
	for k, j := range positions {
		envs[k+1] = v.queue[j].env
	}
	return envs
}

// PreCommit mints the blind-write id for a planned reply that carries
// writes — the one commit-side output whose cross-lane order is
// observable before the reply itself. Runs in merge order on the
// sequential path, between the plan and commit fan-outs.
//
//seve:lane-seal
func (s *Server) PreCommit(p *Pending, plan *ReplyPlan) {
	p.blind = s.mintBlind(plan)
}

// mintBlind returns the next blind-write id when plan carries writes to
// seed (the zero id otherwise: no blind write, no id spent).
func (s *Server) mintBlind(plan *ReplyPlan) action.ID {
	if len(plan.writes) == 0 {
		return action.ID{}
	}
	return s.nextBlindID()
}

// CommitLane finishes one pending's planned batch over the view it was
// stamped on — on its lane's worker under a partitioned epoch: sent()
// marks, envelope assembly around the PreCommit-minted blind id, and the
// per-client batch sequence (the submitting client is lane-pinned, so
// sequence/retainBatch are lane-affine). The reply is staged for
// SealCommit to emit in merge order. Commits over the global view must
// run sequentially: two jobs' batches may carry the same entry.
//
//seve:lane-affine
func (s *Server) CommitLane(p *Pending, plan *ReplyPlan) {
	v := s.seg(p.viewLane).view()
	p.reply = s.commitPlan(&v, p.rec, plan, p.blind, false)
}

// commitPlan applies a planned batch for one recipient: marks every
// position sent to it, places the blind write W(S, ζS(S)) under the id
// blind at the install point (or cuts its reserved slot when the walk
// found nothing to seed), stamps the client's batch sequence, and
// returns the reply. The blind id, the marks and the sequence number are
// the steps whose order across batches is observable — that order, not
// the planning schedule, is what fixes the bytes.
func (s *Server) commitPlan(v *walkView, rec *clientRec, plan *ReplyPlan, blind action.ID, push bool) Reply {
	for _, j := range plan.positions {
		v.queue[j].sent.set(rec.slot)
	}
	return s.batchReply(rec, s.blindFirst(plan, blind), push, plan.footprint)
}

// blindFirst completes a plan's envelope sequence with its blind write.
func (s *Server) blindFirst(plan *ReplyPlan, blind action.ID) []action.Envelope {
	if len(plan.writes) == 0 {
		return plan.envs[1:]
	}
	plan.envs[0] = action.Envelope{
		Seq:    s.installed,
		Origin: action.OriginServer,
		Act:    action.NewBlindWrite(blind, plan.writes),
	}
	return plan.envs
}

// batchReply sequences envs as the client's next batch.
func (s *Server) batchReply(rec *clientRec, envs []action.Envelope, push bool, footprint []world.ObjectID) Reply {
	b := s.sequence(rec, &wire.Batch{Envs: envs, Push: push, InstalledUpTo: s.installed})
	return newReply(rec.id, b, footprint)
}

// SealCommit emits one pending's staged reply and walk stats in merge
// order on the sequential path.
//
//seve:lane-seal
func (s *Server) SealCommit(p *Pending, plan *ReplyPlan, out *ServerOutput) {
	s.noteWalk(plan.stats, out)
	out.Replies = append(out.Replies, p.reply)
}

// GrowScratch ensures the per-worker scratch pool can serve workers
// 0..n-1. Concurrent planners must not grow the pool themselves; the
// shard router calls this once before fanning a flush out.
func (s *Server) GrowScratch(n int) {
	if n > 0 {
		s.scratchFor(n - 1)
	}
}

// noteWalk merges a walk's cost counters into the output and the
// server's cumulative metrics.
func (s *Server) noteWalk(st walkStats, out *ServerOutput) {
	out.QueueScanned += st.scanned
	s.stats.TotalQueueScans += st.scanned
	s.stats.IndexLookups += st.lookups
	s.stats.PushTests += st.pushTests
	s.stats.PushGridLookups += st.gridLookups
	if st.baseline > st.scanned {
		s.stats.ScanSavedEntries += st.baseline - st.scanned
	}
}

// laneInstall pops an entry just installed from its lane segment.
// Called by the install pass in global install order; lane segments are
// ordered by global Seq, so the entry is always the lane head.
//
//seve:lane-seal
func (s *Server) laneInstall(e *entry) {
	if s.lanes == nil || e.lane < 0 {
		return
	}
	ls := &s.lanes[e.lane]
	ls.installed = e.laneSeq
	ls.prune(e)
	ls.pop(1)
}
