package core

import (
	"cmp"
	"fmt"
	"slices"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/integrity"
	"seve/internal/metrics"
	"seve/internal/wire"
	"seve/internal/world"
)

// Server is the server-side protocol engine: Algorithm 2 in ModeBasic,
// Algorithm 5 (with the Algorithm 6 transitive closure) in the
// incomplete-world modes, plus the First Bound push scheduler and the
// Algorithm 7 Information Bound dropper at the higher levels.
//
// The server executes no application logic — "the server merely
// timestamps actions, queues them for delivery to clients, and manages
// the network traffic" (Section III-A). Its only per-action compute is
// read/write-set analysis, which is what lets one server handle
// thousands of clients (Section V-B1).
type Server struct {
	// shared is what a lane handle may read of the engine (pipeline.go).
	shared

	// The embedded segment is the global queue of uncommitted actions
	// a_{installed+1} … a_n under their global Seqs, with its conflict
	// index: s.queue[i] has Seq == s.installed+1+i, s.installed is the
	// serial position up to which ζS is complete, s.nextSeq the newest
	// stamp. Every accepted action is in it; a partitioned engine mirrors
	// the lane-owned ones into lanes as well.
	segment

	// lanes holds the per-lane queue segments when the engine is
	// partitioned (EnablePartition); nil on the single-lane engine. See
	// pipeline.go.
	lanes []segment

	// scratch pools the per-walk state; scratch[0] serves the sequential
	// paths and scratch[w] serves push worker w and lane w's handle.
	// global is the handle SubmitPrepared runs its one-job epochs through.
	scratch []*closureScratch
	global  *Lane
	// tickWindow (pushWindow's queue positions), grid (the entry grid
	// under planPush), groups (pushGroups' recipient groups; relayKeys and
	// relayMembers back them under HybridRelay) and plans (one ReplyPlan
	// per group) are Tick's scratch, reused across ticks.
	tickWindow   []int
	grid         pushGrid
	groups       [][]*clientRec
	relayKeys    []gridSlot
	relayMembers []*clientRec
	plans        []ReplyPlan

	// recs holds everything the server knows per client id, live or not,
	// and tokens indexes the records that have a session by resume token.
	// live lists the registered records in ascending id order — the
	// deterministic client order of Tick's recipient groups (map iteration
	// order would randomize reply ordering and, through link
	// serialization, the whole simulation timeline).
	recs   map[action.ClientID]*clientRec
	tokens map[uint64]*clientRec
	live   []*clientRec
	// nextSlot allocates dense client slots for the sent() bitmaps. Slots
	// are never reused while the server lives.
	nextSlot int

	// log retains every stamped envelope. ModeBasic uses it to answer
	// submissions with the slice (posC, pos(a)]; RecordHistory retains it
	// in other modes for the test oracle.
	log []action.Envelope

	nextBlind  uint32
	lastPushMs float64
	sessionSeq uint64

	// stats holds the engine's cumulative counters, incremented in place
	// on the sequential and seal paths; Metrics fills in the gauges.
	stats metrics.ServerStats

	// recent retains the last recentWindow installed results, slot
	// seq % recentWindow, so a late completion report (failure-tolerant
	// redundancy, a resume re-send) can still be checked against what
	// installed (replayCheck).
	recent [recentWindow]recentResult

	// feedRecs is the journal's reusable group-assembly scratch;
	// installEpoch numbers the install passes.
	feedRecs     []CommitRecord
	installEpoch uint64

	// boot is the recovery generation (RestoreState.Boot); CatchUp
	// verdicts carry it so clients can fence completions retained
	// against a previous boot. bootFloor is the install point this boot
	// recovered at (RestoreState.UpTo): the fence below which serial
	// positions survived the restart, carried in CatchUp verdicts so a
	// resuming client can roll back everything it holds above it.
	boot      uint64
	bootFloor uint64

	// pushWidth, when non-zero, fixes the push scheduler's pool width (1 =
	// the sequential path): the reference leg of
	// TestTickParallelDeterminism, set only by this package's tests.
	pushWidth int

	// planExec, when set, runs read-only planning fan-outs on the
	// caller's worker pool instead of ad-hoc goroutines (SetPlanExecutor).
	planExec func(tasks []func())

	// quarOut stages the quarantine verdicts DrainQuarantines emits in
	// effective-log order (DESIGN.md §16).
	quarOut []Reply
}

// recentWindow is how many installed results the server retains for
// checking late completion reports.
const recentWindow = 256

type recentResult struct {
	seq uint64
	res action.Result
}

// clientInfo is what the server knows about a registered client for
// bound checks: its last reported position and influence radius ("the
// position of the character representing client C … and the maximum
// radius of influence of an action by C", Section III-D). It lasts one
// registration: a re-registration starts from the zero value.
type clientInfo struct {
	pos      geom.Vec
	radius   float64
	hasPos   bool
	posAtMs  float64
	interest uint64
	// posC is the Algorithm 2 cursor: the position of the last action
	// sent to this client (ModeBasic only).
	posC uint64
	// nextBatchSeq numbers the batches sent to this client so it can
	// restore order across the direct and relayed paths.
	nextBatchSeq uint64
}

// clientRec is the one record the server keeps per client id, created
// when the id is first seen (a submission, a completion, a registration,
// a recovered session or verdict) and kept for the life of the server: a
// quarantined client cannot clear its verdict, nor a resuming one lose
// its sent() bits, by reconnecting.
type clientRec struct {
	id action.ClientID
	// slot is the client's dense index into the entry.sent bitmaps,
	// assigned at its first submission or registration (-1 until then) and
	// kept across unregister/re-register so the bits recorded under it
	// stay valid.
	slot int
	// registered marks a live registration; clientInfo is its state.
	registered bool
	clientInfo
	// sess is the resume session (Config.ResumeWindow > 0), nil until the
	// first registration. See resume.go.
	sess *session
	// led is the integrity ledger (DESIGN.md §16): audit seed, submit
	// bucket, quarantine latch. The seed derives from the client id alone,
	// so the sampling stream is identical across resume, effective-log
	// replay, and crash-restart.
	led integrity.Ledger
	// dropped counts the submissions the Information Bound Model
	// invalidated, for the fairness analysis of Section III-E.
	dropped int
}

// recordOf returns (creating on first sight) the record for id.
func (s *Server) recordOf(id action.ClientID) *clientRec {
	rec := s.recs[id]
	if rec == nil {
		rec = &clientRec{id: id, slot: -1,
			led: integrity.Ledger{Seed: integrity.Mix(uint64(uint32(id)))}}
		s.recs[id] = rec
	}
	return rec
}

// claimSlot gives rec its sent-bitmap slot if it has none yet.
func (s *Server) claimSlot(rec *clientRec) {
	if rec.slot < 0 {
		rec.slot = s.nextSlot
		s.nextSlot++
	}
}

// enlist makes rec a live registration starting from ci.
func (s *Server) enlist(rec *clientRec, ci clientInfo) {
	rec.clientInfo, rec.registered = ci, true
	s.claimSlot(rec)
	i, _ := slices.BinarySearchFunc(s.live, rec.id, func(r *clientRec, id action.ClientID) int {
		return cmp.Compare(r.id, id)
	})
	s.live = slices.Insert(s.live, i, rec)
}

// sequence stamps b with the client's next batch sequence number and,
// with sessions enabled, retains it in the client's resume window.
func (s *shared) sequence(rec *clientRec, b *wire.Batch) *wire.Batch {
	if rec.registered {
		rec.nextBatchSeq++
		b.ClientSeq = rec.nextBatchSeq
		s.retainBatch(rec, b)
	}
	return b
}

// entry is one uncommitted action in the server's global queue, with the
// metadata the analyses need: interned (dense) read/write sets, the set
// sent(a) of clients the action has been sent to (Algorithm 5) as a
// bitmap over dense client slots, and spatial data.
type entry struct {
	env action.Envelope

	// rsd and wsd are the declared read and write sets as dense object
	// indices (one backing array, interned once at submission).
	rsd []uint32
	wsd []uint32

	sent sentVec

	// lane and laneSeq place the entry in a shard lane's queue segment
	// when the engine is partitioned (pipeline.go): lane is the owning
	// lane (-1 for spanning/global-lane entries and for unpartitioned
	// engines), laneSeq the lane-local serial position.
	lane    int32
	laneSeq uint64

	pos       geom.Vec
	radius    float64
	hasPos    bool
	vel       geom.Vec
	hasVel    bool
	class     uint8
	stampedMs float64

	// The hold (Algorithm 5 step 5: "the server holds it until ζS(i−1) is
	// available"). Kept after the fields above on purpose: the push
	// planner reads sent, pos, radius and stampedMs for every grid
	// candidate of every client, and these are touched once per action.
	//
	// res is the held completion result and held whether there is one;
	// reporter is the client behind it (audit attribution; nil with
	// integrity disabled). forceAudit marks a report that failed validation
	// and must be repaired by audit at install time. selfComplete marks a
	// position abandoned by a quarantined origin: no honest completion will
	// ever arrive (the client's reports are rejected), so the server
	// evaluates the action itself at install time — one cheater's leftovers
	// cannot wedge the queue.
	res          action.Result
	reporter     *clientRec
	held         bool
	forceAudit   bool
	selfComplete bool
}

// hold accepts res as the entry's completion, reported by by.
func (e *entry) hold(res action.Result, by *clientRec) {
	e.res, e.reporter, e.held, e.selfComplete = res.Clone(), by, true, false
}

// sentVec is sent(a) as a bitmap over dense client slots. It grows
// lazily: a slot beyond the current length is simply not sent yet.
type sentVec []uint64

func (v sentVec) has(slot int) bool {
	w := slot >> 6
	return w < len(v) && v[w]&(1<<uint(slot&63)) != 0
}

func (v *sentVec) set(slot int) {
	w := slot >> 6
	for w >= len(*v) {
		*v = append(*v, 0)
	}
	(*v)[w] |= 1 << uint(slot&63)
}

// clear drops a slot's bit: the client lost everything it had been sent
// (a snapshot resume rebuilt its state), so future closures must treat
// the entry as unsent.
func (v sentVec) clear(slot int) {
	w := slot >> 6
	if w < len(v) {
		v[w] &^= 1 << uint(slot&63)
	}
}

// NewServer returns a server engine over the given initial world. The
// configuration must be valid.
func NewServer(cfg Config, init *world.State) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Server{
		shared: shared{cfg: cfg, zs: init.Clone(), intern: world.NewInterner()},
		recs:   make(map[action.ClientID]*clientRec),
		tokens: make(map[uint64]*clientRec),
	}
	s.global = s.Lane(-1)
	return s
}

// SetJournal registers the durable commit feed. Pass nil to remove.
// The Section II transaction layer "commits at periodic checkpoints"
// to a database through exactly this feed (see package durable): one
// CommitGroup per install pass and one SessionOpen per session
// mint/reset, both on the engine's sequential entry points.
func (s *Server) SetJournal(j Journal) {
	s.journal = j
}

// RegisterClient announces a client to the server. interestMask selects
// interest classes for Section IV-A filtering; 0 subscribes to all
// classes.
func (s *Server) RegisterClient(id action.ClientID, interestMask uint64) {
	rec := s.recordOf(id)
	if rec.registered {
		panic(fmt.Sprintf("core: client %d registered twice", id))
	}
	s.enlist(rec, clientInfo{interest: interestMask})
	s.openSession(rec, interestMask)
}

// UnregisterClient removes a client (failure or disconnect). Queued
// actions it originated remain; under FailureTolerant configurations
// other clients' completions still install them.
func (s *Server) UnregisterClient(id action.ClientID) {
	rec := s.recs[id]
	if rec == nil || !rec.registered {
		return
	}
	rec.registered = false
	s.live = slices.DeleteFunc(s.live, func(r *clientRec) bool { return r == rec })
}

// Installed returns the serial position up to which ζS is complete.
func (s *Server) Installed() uint64 { return s.installed }

// Authoritative returns ζS.
func (s *Server) Authoritative() *world.State { return s.zs }

// QueueLen reports the number of uncommitted actions.
func (s *Server) QueueLen() int { return len(s.queue) }

// TotalSubmitted reports all submissions received.
func (s *Server) TotalSubmitted() int { return s.stats.TotalSubmitted }

// TotalDropped reports submissions invalidated by the Information Bound
// Model.
func (s *Server) TotalDropped() int { return s.stats.TotalDropped }

// DroppedByClient reports per-origin drop counts, for the fairness
// analysis of Section III-E.
func (s *Server) DroppedByClient() map[action.ClientID]int {
	out := make(map[action.ClientID]int)
	for id, rec := range s.recs {
		if rec.dropped > 0 {
			out[id] = rec.dropped
		}
	}
	return out
}

// TotalQueueScans reports cumulative queue entries examined by closure
// and validity analysis.
func (s *Server) TotalQueueScans() int { return s.stats.TotalQueueScans }

// History returns the stamped envelopes in serial order. It requires
// ModeBasic or Config.RecordHistory.
func (s *Server) History() []action.Envelope { return s.log }

// HandleMsg dispatches a client message. nowMs is the server's clock in
// milliseconds (virtual time under simulation, wall time over TCP).
func (s *Server) HandleMsg(from action.ClientID, msg wire.Msg, nowMs float64) ServerOutput {
	switch m := msg.(type) {
	case *wire.Submit:
		return s.HandleSubmit(from, m, nowMs)
	case *wire.Completion:
		return s.HandleCompletion(from, m)
	case *wire.Resume:
		// A resume identifies its client by token, not by the connection,
		// so `from` is ignored. Routed here (not only through the Resumer
		// interface) so a recorded shard log replays it deterministically.
		_, out := s.HandleResume(m, nowMs)
		return out
	default:
		// Unknown message types are ignored; the transport layer logs.
		return ServerOutput{}
	}
}

// HandleCompletion processes Algorithm 5 step 5: the completion for a_i
// is held until ζS(i−1) is available, then its values are installed into
// ζS and a_i is discarded from the action queue. from identifies the
// connection the completion arrived on — the integrity layer attributes
// forgeries and audit divergences to the sender, never to the claimed
// m.By (trust the connection, not the payload).
func (s *Server) HandleCompletion(from action.ClientID, m *wire.Completion) ServerOutput {
	if s.cfg.Mode == ModeBasic {
		return ServerOutput{} // no authoritative state to maintain
	}
	s.TakeCompletion(from, m)
	s.InstallContiguous()
	var out ServerOutput
	s.DrainQuarantines(&out)
	return out
}

// TakeCompletion records a completion result without installing
// anything: the replay check for installed positions plus the hold on
// the queue entry ("the server holds it until ζS(i−1) is available").
// The shard router buffers completions through this and runs one
// InstallContiguous cascade per epoch flush. With integrity enabled the
// report is validated first: the action's declared sets must honor
// WS ⊆ RS, and every reported write must fall inside the declared write
// set (DESIGN.md §16a). A report that fails validation quarantines the
// sender and forces a repairing audit at install time, so the queue
// never wedges on a position whose only report was forged.
func (s *Server) TakeCompletion(from action.ClientID, m *wire.Completion) {
	if s.cfg.Mode == ModeBasic {
		return
	}
	// rec is the reporter the hold attributes the result to; it stays nil
	// with integrity disabled, when nothing is attributed.
	var rec *clientRec
	if !s.noIntegrity {
		rec = s.recordOf(from)
		if rec.led.Quarantined {
			s.stats.QuarantineRejected++
			return
		}
	}
	if m.Seq <= s.installed {
		// Duplicate of an installed action (failure-tolerant
		// redundancy); still check it against the retained result.
		s.replayCheck(rec, m)
		return
	}
	if m.Seq > s.nextSeq {
		// No action has been stamped at that position: the completion
		// references a serial timeline this server never issued — a
		// stale re-send minted against a previous boot, racing ahead of
		// the client's catch-up fencing. Accepting it would poison the
		// position when a fresh stamp reuses it.
		s.stats.StaleCompletions++
		return
	}
	e := s.queue[m.Seq-s.installed-1]
	switch {
	case e.held && !e.selfComplete:
		return // first report wins; a disagreeing second one is ignored
	case e.held:
		// A real report arrived for a position the server had written off
		// as abandoned (failure-tolerant redundancy beat the
		// self-completion). Adopt it if it validates; the placeholder
		// carries no information to compare against.
		if rec != nil {
			if _, ok := integrity.CheckFootprint(m.Res, e.env.Act.WriteSet()); !ok {
				s.stats.ForgedCompletions++
				s.quarantine(rec, integrity.ViolationFootprint, m.Seq, 0)
				return
			}
		}
	case rec != nil:
		// Blind writes are server-minted (WS with no RS by design);
		// client-originated actions must honor the declared contract.
		if e.env.Origin != action.OriginServer && !integrity.CheckContract(e.env.Act) {
			s.stats.ContractBreaches++
			s.quarantine(rec, integrity.ViolationContract, m.Seq, 0)
			s.holdForRepair(e, rec, m)
			return
		}
		if id, ok := integrity.CheckFootprint(m.Res, e.env.Act.WriteSet()); !ok {
			s.stats.ForgedCompletions++
			s.quarantine(rec, integrity.ViolationFootprint, m.Seq, uint64(id))
			s.holdForRepair(e, rec, m)
			return
		}
	}
	e.hold(m.Res, rec)
	s.stats.CompletionsTaken++
}

// holdForRepair accepts a completion that failed validation into the
// hold, flagged for a mandatory install-time audit. The forged report
// never reaches ζS — the audit re-executes the action and installs the
// server's own result — but the position stays installable, so one
// cheater cannot wedge the queue for everyone. (The verdict's
// abandoned-position walk may have just marked this very position; the
// held report supersedes the self-completion.)
func (s *Server) holdForRepair(e *entry, from *clientRec, m *wire.Completion) {
	e.hold(m.Res, from)
	e.forceAudit = true
	s.stats.CompletionsTaken++
}

// InstallContiguous installs the contiguous prefix of the queue whose
// results are held: write application into ζS in queue order, then the
// in-order per-action bookkeeping (watermark, journal group,
// recent-result window, index pruning, lane pops).
func (s *Server) InstallContiguous() {
	// An audit inside a pass may quarantine an origin and self-complete
	// its abandoned positions at the queue head, unblocking a further
	// contiguous run — keep passing until nothing more installs.
	for s.installContiguousPass() {
	}
}

func (s *Server) installContiguousPass() bool {
	n := 0
	for n < len(s.queue) && s.queue[n].held {
		n++
	}
	if n == 0 {
		return false
	}

	// With integrity enabled the prefix installs in segments around the
	// audit barriers: at each audited position ζS is exactly the serial
	// state at seq−1, so the auditor re-executes the action against it
	// and compares with the reported result (DESIGN.md §16b). With
	// integrity off (or nothing sampled) this is one segment — the
	// historical single pass, byte for byte.
	off := 0
	for off < n {
		k := n
		if !s.noIntegrity {
			for i := off; i < n; i++ {
				if s.auditDue(s.queue[i]) {
					k = i
					break
				}
			}
		}
		if k == off {
			s.auditEntry(s.queue[off])
			k = off + 1
		}
		s.installSegment(s.queue[off:k])
		off = k
	}
	s.pop(n)
	return true
}

// installSegment installs one contiguous run of the queue prefix: write
// application into ζS, the journal group, then the in-order per-action
// bookkeeping. Segment boundaries exist only at audit barriers, so with
// auditing quiet this is the whole prefix in one group.
func (s *Server) installSegment(batch []*entry) {
	if len(batch) == 0 {
		return
	}
	for _, e := range batch {
		if e.res.OK {
			for _, w := range e.res.Writes {
				s.zs.Set(w.ID, w.Val)
			}
		}
	}

	// One install segment = one journal group: the grouped record
	// carries the run in serial order, so durability preserves exactly
	// the seal boundaries the pipeline commits at.
	if s.journal != nil {
		s.emitCommitGroup(batch)
	}

	for _, e := range batch {
		s.installed = e.env.Seq
		if !s.noIntegrity {
			s.recent[e.env.Seq%recentWindow] = recentResult{seq: e.env.Seq, res: e.res}
		}
		s.prune(e)
		s.laneInstall(e)
	}
}

// auditDue reports whether e's completion is audited before installing:
// flagged for mandatory repair by the validator, abandoned to the server
// by a quarantined origin, or picked by the reporter's deterministic
// sampling stream.
func (s *Server) auditDue(e *entry) bool {
	if e.forceAudit || e.selfComplete {
		return true
	}
	return s.cfg.AuditRate > 0 && e.reporter != nil &&
		e.reporter.led.ShouldAudit(e.env.Seq, s.cfg.AuditRate)
}

// auditEntry re-executes e against ζS — which at this point is exactly
// the serial state at e.Seq−1 — and compares with the reported result.
// Theorem 1 guarantees an honest report matches (the client evaluated
// against the same serial prefix), so a divergence is tampering: the
// reporter is quarantined and the server's own result replaces the
// forged one before installation, keeping ζS equal to the serial-replay
// oracle.
func (s *Server) auditEntry(e *entry) {
	if e.selfComplete {
		// Abandoned by a quarantined origin: there is no report to
		// compare, the evaluation at ζS (exactly the serial state at
		// seq−1) IS the result.
		e.res = action.Eval(e.env.Act, world.StateView{S: s.zs})
		e.selfComplete = false
		s.stats.OrphanCompletions++
		return
	}
	s.stats.AuditsRun++
	got, ok := integrity.Audit(e.env.Act, world.StateView{S: s.zs}, e.res)
	if ok {
		return
	}
	s.stats.AuditDivergences++
	if e.reporter != nil {
		s.quarantine(e.reporter, integrity.ViolationAudit, e.env.Seq, 0)
	}
	e.res = got
	s.stats.RepairedResults++
}

// replayCheck compares a late completion with the retained result of
// the installed position it names. Honest late reports — failure-tolerant
// redundancy, resume re-sends of retained completions — match the
// installed result by Theorem 1, so a mismatch is a replayed forged
// completion and quarantines the sender. from is nil with integrity
// disabled, when nothing is retained.
func (s *Server) replayCheck(from *clientRec, m *wire.Completion) {
	r := &s.recent[m.Seq%recentWindow]
	if from == nil || r.seq != m.Seq || m.Seq == 0 {
		return // outside the window (no action is ever stamped 0)
	}
	if !m.Res.Equal(r.res) {
		s.quarantine(from, integrity.ViolationReplay, m.Seq, 0)
	}
}

// Quarantined reports whether the client is under an integrity
// quarantine.
func (s *Server) Quarantined(id action.ClientID) bool {
	rec := s.recs[id]
	return rec != nil && rec.led.Quarantined
}

// quarantine latches the verdict for the client behind a connection,
// stages the wire verdict for DrainQuarantines, and journals it so the
// quarantine survives crash-restart. Idempotent: only the first
// violation produces a verdict.
func (s *Server) quarantine(rec *clientRec, reason integrity.Violation, seq, detail uint64) {
	if rec.led.Quarantined {
		return
	}
	rec.led.Quarantined = true
	s.stats.QuarantinedClients++
	// Positions this origin stamped but never completed are abandoned —
	// its future reports will be rejected — so mark them for server
	// self-completion at install time rather than wedging the queue.
	for _, e := range s.queue {
		if e.env.Origin == rec.id && !e.held {
			e.held, e.selfComplete = true, true
		}
	}
	s.quarOut = append(s.quarOut, newReply(rec.id, &wire.Quarantine{Reason: uint8(reason), Seq: seq, Detail: detail}, nil))
	if qj, ok := s.journal.(QuarantineJournal); ok {
		qj.ClientQuarantined(rec.id, uint8(reason), seq)
	}
}

// DrainQuarantines moves staged quarantine verdicts into out. The
// single-lane completion path drains after each install cascade; the
// shard router drains right after its install pass, before any stamp
// replies — matching the effective log, where completions are recorded
// ahead of the epoch's stamps, so replay emits verdicts in the same
// per-client order.
func (s *Server) DrainQuarantines(out *ServerOutput) {
	if len(s.quarOut) == 0 {
		return
	}
	out.Replies = append(out.Replies, s.quarOut...)
	s.quarOut = s.quarOut[:0]
}

// noteClientPosition updates the server's view of the client's character
// position and action radius from the submitted action's spatial
// metadata.
func noteClientPosition(rec *clientRec, e *entry, nowMs float64) {
	if !rec.registered || !e.hasPos {
		return
	}
	rec.pos = e.pos
	rec.hasPos = true
	rec.posAtMs = nowMs
	if e.radius > rec.radius {
		rec.radius = e.radius
	}
}

func newEntry(env action.Envelope, nowMs float64) *entry {
	e := &entry{
		env:       env,
		stampedMs: nowMs,
		lane:      -1,
	}
	if sp, ok := env.Act.(action.Spatial); ok {
		c := sp.Influence()
		e.pos, e.radius, e.hasPos = c.Center, c.R, true
	}
	if mv, ok := env.Act.(action.Moving); ok {
		e.vel, e.hasVel = mv.Motion(), true
	}
	if cl, ok := env.Act.(action.Classed); ok {
		e.class = cl.InterestClass()
	}
	return e
}

// internEntry caches the entry's declared read and write sets as dense
// indices (one backing allocation) and keeps the writer-list tables in
// step with the interner. Must run before the entry meets any walk.
func (s *Server) internEntry(e *entry) {
	rs, ws := e.env.Act.ReadSet(), e.env.Act.WriteSet()
	buf := make([]uint32, 0, len(rs)+len(ws))
	buf = s.intern.InternSet(rs, buf)
	buf = s.intern.InternSet(ws, buf)
	e.rsd = buf[:len(rs):len(rs)]
	e.wsd = buf[len(rs):]
	s.growWriters()
}

// Metrics returns a consistent snapshot of the engine's cumulative
// counters. Callers must hold whatever synchronization guards the other
// engine entry points (the engine itself is single-goroutine).
func (s *Server) Metrics() metrics.ServerStats {
	st := s.stats
	st.Installed = s.installed
	st.QueueLen = len(s.queue)
	st.QueueCompactions, st.WriterCompactions = s.compactions, s.writerCompactions
	for i := range s.lanes {
		st.QueueCompactions += s.lanes[i].compactions
		st.WriterCompactions += s.lanes[i].writerCompactions
	}
	st.InternedObjects = s.intern.Len()
	st.TrackedClients = len(s.live)
	st.RetainedBatches = s.retainedBatches()
	return st
}

func (s *Server) nextBlindID() action.ID {
	s.nextBlind++
	return action.ID{Client: action.OriginServer, Seq: s.nextBlind}
}
