package core

import (
	"fmt"
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
//	Lane.Stamp* → SealStamp → Lane.Plan* → PreCommit → Lane.Commit* → SealCommit
//
// A view is a segment of the uncommitted queue with its conflict index:
// a lane's (view ≥ 0) or the global queue (view −1). The starred phases
// are methods on a Lane handle holding the view's segment, a worker's
// walk scratch and the engine's read-only part — no Server, so no global
// queue from a lane view and no other lane's segment. Beyond those they
// touch only the pending's entry and the submitter's record (the router
// pins each client to one lane per epoch). The Server's Seal/PreCommit
// passes own everything shared — global Seqs, blind-write ids, counters,
// history, the reply order — in the deterministic merge order (epoch,
// lane, lane-local arrival).
//
// HandleSubmit is the one-job epoch on the global view (SubmitPrepared).
// The shard router (shard/router.go) runs many-job epochs with every
// live queue entry lane-owned: one view per lane and the starred phases
// on parallel lane workers. While a spanning ("bridge") entry is live it
// runs each job through SubmitPrepared instead, in merge order. Either
// way the observable outputs are byte-identical to submitting the jobs
// one by one in merge order (TestShardedEquivalence,
// TestLanePipelineMatchesSequential).
//
// A partitioned engine (EnablePartition) mirrors the uncommitted queue
// into per-lane segments: every accepted lane-local action lives in the
// global queue under its global Seq and in its owner lane's segment
// under a lane-local laneSeq. Because the router's routing guarantees a
// lane-local action's whole footprint is owned by one lane, and because
// the router submits on the global view while any bridge is live, an
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

	// Stamp outcome, staged by Lane.Stamp for SealStamp to count and
	// answer in merge order: a session duplicate, an influence-bound
	// violation, an Information Bound drop, and the validity walk's cost.
	dup        bool
	bound      integrity.Violation
	dropped    bool
	stampStats walkStats

	// blind is the blind-write id PreCommit mints in merge order, and
	// installed the global install point it reads for the blind write's
	// Seq and the batch's InstalledUpTo (no install runs before Commit).
	blind     action.ID
	installed uint64
	// reply is the Batch staged by Lane.Commit for SealCommit to emit.
	reply Reply
}

// shared is the part of the engine a Lane may read. ζS and the interner
// change only on the sequential path (installs, PrepareSubmit), which
// never overlaps a lane phase.
type shared struct {
	cfg Config
	// zs is ζS, the authoritative stable state, built by installing the
	// write values carried in completion messages (Algorithm 5). Only
	// maintained from ModeIncomplete up.
	zs *world.State
	// intern maps sparse ObjectIDs to dense indices for the analysis
	// walks and the segments' writer tables.
	intern *world.Interner
	// journal, when set, receives the commit feed: one grouped record
	// per InstallContiguous pass plus the session-layer records — the
	// integration point for the durability pipeline (package durable).
	journal Journal
	// fullScan makes the analysis walks scan the full uncommitted queue
	// instead of consulting the reverse conflict index, and planPush test
	// every window entry instead of consulting the entry grid. noIntegrity
	// turns the integrity layer (DESIGN.md §16) off: no completion
	// validation, audits, replay checks or per-client bounds. They select
	// the reference legs of TestClosureIndexEquivalence,
	// TestPushGridEquivalence and TestIntegrityOffEquivalence; only this
	// package's tests set them.
	fullScan    bool
	noIntegrity bool
}

// Lane is the handle the starred phases run on. Distinct lanes' handles
// touch disjoint state and may run on parallel workers; the global
// view's handle is SubmitPrepared's.
type Lane struct {
	*shared
	view int
	seg  *segment
	sc   *closureScratch
}

// Lane returns the handle on view (a lane, or −1 for the global queue)
// with its own walk scratch (the global view shares the sequential
// paths' scratch). It grows the scratch pool, so handles are built once
// on the engine goroutine and reused.
func (s *Server) Lane(view int) *Lane {
	g := &s.segment
	if view >= 0 {
		g = &s.lanes[view]
	}
	return &Lane{shared: &s.shared, view: view, seg: g, sc: s.scratchFor(max(view, 0))}
}

// own panics unless p was stamped on l's view: p.pos indexes that view's
// segment, and through any other handle Plan would walk, and Commit mark
// sent, the wrong entries.
func (l *Lane) own(p *Pending) {
	if p.viewLane != l.view {
		panic(fmt.Sprintf("core: pending stamped on view %d used through view %d's handle", p.viewLane, l.view))
	}
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

// EnablePartition mirrors the uncommitted queue into n per-lane
// segments. The shard router calls it once at construction, before any
// submission; it requires an empty queue and an incomplete-world mode
// (ModeBasic keeps no queue to partition).
func (s *Server) EnablePartition(n int) {
	if n < 2 || s.cfg.Mode < ModeIncomplete {
		return
	}
	if len(s.queue) != 0 {
		panic("core: EnablePartition on a non-empty queue")
	}
	s.lanes = make([]segment, n)
	s.growWriters()
}

// Partitioned reports whether per-lane segments are maintained.
func (s *Server) Partitioned() bool { return s.lanes != nil }

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
func (s *Server) SubmitPrepared(p *Pending, out *ServerOutput) bool {
	s.global.Stamp([]*Pending{p})
	if !s.SealStamp(p, out) {
		return false
	}
	plan := s.global.Plan(p, nil)
	s.PreCommit(p, &plan)
	s.global.Commit(p, &plan)
	s.SealCommit(p, &plan, out)
	return true
}

// Stamp runs the view-affine half of stamping for ps, in order:
// duplicate detection, the per-client influence bounds, client-position
// notes, Algorithm 7 validity over the view, and enqueue+index of the
// accepted entries in the view's segment. Outcomes are staged on the
// pendings; SealStamp applies the shared-state half in merge order.
//
// On a lane view it may run on that lane's worker, concurrently with
// other lanes: it requires every pending's footprint to be owned by the
// lane and every submitting client to be pinned to it for the epoch. On
// the global view (-1) it assigns the global Seq itself; SubmitPrepared
// runs it there one pending at a time.
func (l *Lane) Stamp(ps []*Pending) {
	g := l.seg
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

		if p.bound = l.boundsCheck(p); p.bound != integrity.OK {
			continue
		}

		noteClientPosition(rec, e, p.nowMs)

		if l.cfg.Mode >= ModeInfoBound {
			v := g.view()
			p.dropped, _, p.stampStats = l.validityWalk(&v, e.rsd, e.hasPos, e.pos, l.cfg.Threshold, l.sc)
			if p.dropped {
				continue
			}
		}

		// Timestamp a and put it into the queue (Algorithm 2 step 2a /
		// Algorithm 5 step 3a).
		p.viewLane = l.view
		if l.cfg.Mode == ModeBasic {
			// No queue, no sent(): the stamp is the serial position alone.
			g.nextSeq++
			e.env.Seq = g.nextSeq
			continue
		}
		if l.view < 0 {
			e.env.Seq = g.push(e)
		} else {
			e.lane, e.laneSeq = int32(l.view), g.push(e)
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
func (s *shared) boundsCheck(p *Pending) integrity.Violation {
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
// owner lane's segment (keeping the segments complete across
// SubmitPrepared calls — spanning entries, lane < 0, have no segment and
// are exactly the bridges that keep the router's epochs sequential while
// live). It reports whether a reply plan is owed.
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
	b := s.sequence(rec, &wire.Batch{Envs: envs, InstalledUpTo: s.installed})
	out.Replies = append(out.Replies, newReply(rec.id, b, nil))
}

// Plan computes the Algorithm 6 closure reply for p, which must have
// been stamped on l's view: the transitive closure of uncommitted
// actions affecting it, prefixed by a blind write. Planning is read-only
// apart from the handle's scratch, so distinct pendings may plan
// concurrently through handles on distinct workers over a frozen queue.
//
// overlay, when non-nil, reports queue positions that an earlier plan in
// the same batch already included in a batch for p's client — those
// entries count as sent even though their sent() bits are only applied
// when that earlier plan commits. The shard lanes use it to keep
// plan-phase results identical to fully sequential processing.
func (l *Lane) Plan(p *Pending, overlay func(pos int) bool) ReplyPlan {
	l.own(p)
	slot := p.rec.slot
	already := sentTo(slot)
	if overlay != nil {
		already = func(j int, e *entry) bool { return e.sent.has(slot) || overlay(j) }
	}
	v := l.seg.view()
	return l.planBatch(&v, []int{p.pos}, l.sc, already)
}

// sentTo is the closure walk's already() for a single recipient.
func sentTo(slot int) func(int, *entry) bool {
	return func(_ int, e *entry) bool { return e.sent.has(slot) }
}

// planBatch plans one batch for a recipient: the closure walk over the
// seeds, the batch's envelopes, and its covered-object footprint. Pure
// reads over the frozen view apart from the private scratch.
func (s *shared) planBatch(v *walkView, seeds []int, sc *closureScratch, already func(int, *entry) bool) ReplyPlan {
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
func (s *shared) planFootprint(v *walkView, positions []int, writes []world.Write) []world.ObjectID {
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
// observable before the reply itself — and stages the install point
// Commit reads. Runs in merge order on the sequential path, between the
// plan and commit fan-outs.
func (s *Server) PreCommit(p *Pending, plan *ReplyPlan) {
	p.blind, p.installed = s.mintBlind(plan), s.installed
}

// mintBlind returns the next blind-write id when plan carries writes to
// seed (the zero id otherwise: no blind write, no id spent).
func (s *Server) mintBlind(plan *ReplyPlan) action.ID {
	if len(plan.writes) == 0 {
		return action.ID{}
	}
	return s.nextBlindID()
}

// Commit finishes the planned batch of p, which must have been stamped
// on l's view — on its lane's worker under a partitioned epoch: sent()
// marks, envelope assembly around the PreCommit-minted blind id, and the
// per-client batch sequence (the submitting client is lane-pinned, so
// sequence/retainBatch are lane-affine). The reply is staged for
// SealCommit to emit in merge order. On the global view only
// SubmitPrepared commits, one job at a time.
func (l *Lane) Commit(p *Pending, plan *ReplyPlan) {
	l.own(p)
	v := l.seg.view()
	p.reply = l.commitPlan(&v, p.rec, plan, p.blind, p.installed, false)
}

// commitPlan applies a planned batch for one recipient: marks every
// position sent to it, places the blind write W(S, ζS(S)) under the id
// blind at the install point installed (or cuts its reserved slot when
// the walk found nothing to seed), stamps the client's batch sequence,
// and returns the reply. The blind id, the marks and the sequence number
// are the steps whose order across batches is observable — that order,
// not the planning schedule, is what fixes the bytes.
func (s *shared) commitPlan(v *walkView, rec *clientRec, plan *ReplyPlan, blind action.ID, installed uint64, push bool) Reply {
	for _, j := range plan.positions {
		v.queue[j].sent.set(rec.slot)
	}
	b := &wire.Batch{Envs: blindFirst(plan, blind, installed), Push: push, InstalledUpTo: installed}
	return newReply(rec.id, s.sequence(rec, b), plan.footprint)
}

// blindFirst completes a plan's envelope sequence with its blind write
// at the install point.
func blindFirst(plan *ReplyPlan, blind action.ID, installed uint64) []action.Envelope {
	if len(plan.writes) == 0 {
		return plan.envs[1:]
	}
	plan.envs[0] = action.Envelope{
		Seq:    installed,
		Origin: action.OriginServer,
		Act:    action.NewBlindWrite(blind, plan.writes),
	}
	return plan.envs
}

// SealCommit emits one pending's staged reply and walk stats in merge
// order on the sequential path.
func (s *Server) SealCommit(p *Pending, plan *ReplyPlan, out *ServerOutput) {
	s.noteWalk(plan.stats, out)
	out.Replies = append(out.Replies, p.reply)
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
func (s *Server) laneInstall(e *entry) {
	if s.lanes == nil || e.lane < 0 {
		return
	}
	ls := &s.lanes[e.lane]
	ls.installed = e.laneSeq
	ls.prune(e)
	ls.pop(1)
}
