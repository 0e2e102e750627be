package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/manhattan"
	"seve/internal/metrics"
	"seve/internal/shard"
	"seve/internal/transport"
	"seve/internal/wire"
	"seve/internal/world"
)

const (
	// sendQueueCap is transport.Server's per-client queue bound.
	sendQueueCap = 256
	// popBytes lifts PopAll's byte budget: the budget caps one socket
	// write, and the socket is the one stage this driver skips.
	popBytes = 1 << 30
	// scratchRoot holds the journal directories. The driver's checkout
	// ignores it (.gitignore) and the benchmark may write nowhere else.
	scratchRoot = ".bench_build"
)

// side is who pays for a stretch of driver time.
type side int

const (
	sideServer side = iota // uplink decode, engine calls, downlink encode, SendQueue
	sideClient             // downlink decode, Client.HandleMsg, Client.Submit, uplink encode
	sideGen                // World.NewMove; excluded from every metric
	sideIdle               // bookkeeping between phases
	nSides
)

// slot is one avatar and whoever currently plays it.
type slot struct {
	avatar world.ObjectID
	id     action.ClientID
	token  uint64
	cl     *core.Client
	q      *transport.SendQueue
	frames []*wire.Frame
	dirty  bool
	// inflight counts submitted moves not yet committed or dropped; the
	// loop is closed, so it is 0 or 1.
	inflight int
	// act tags this client's spans with its outstanding action.
	act uint64
	// skip makes the slot sit out the next generate (churn: its last
	// move must install before it may leave).
	skip bool
}

type upMsg struct {
	from     *slot
	off, end int
}

type move struct {
	s  *slot
	mv *manhattan.MoveAction
}

// pass is one run of the deterministic op sequence against a fresh
// engine and fresh clients: everything from durable.Open to the
// recovery check. All engine, queue and client calls happen on the
// goroutine that calls run.
type pass struct {
	sp      *spec
	w       *manhattan.World
	init    *world.State
	cfg     core.Config
	seconds int
	tr      *tracer

	eng     core.Engine
	flusher core.Flusher
	store   *durable.Store
	journal *timedJournal
	dir     string
	ctrs    transport.DeliveryCounters
	sup     bool
	cache   wire.EncodeCache

	slots  []*slot
	byID   map[action.ClientID]*slot
	nextID action.ClientID
	dirty  []*slot
	upBuf  []byte
	upMsgs []upMsg
	moves  []move

	nowMs      float64
	nextTickMs float64
	inTick     bool

	mark time.Time
	acc  [nSides]time.Duration

	c         counts // running totals
	resolved  int    // commits + drops seen, for the solo sampler
	violation string
	rejects   int // SendQueue verdicts other than Enqueued/Coalesced
	encodes   int
	depthMax  int
	queueMax  int

	res passResult
}

// passResult is what one pass measured.
type passResult struct {
	// Whole-pass and burst-phase counts; both must repeat across passes.
	counts, burstCounts counts
	setup               time.Duration
	// Per burst round: server-side and client-side seconds.
	srv, cli []float64
	// Per solo action: submit→commit seconds.
	solo []float64
	// Burst-phase totals.
	burst      [nSides]time.Duration
	burstWall  time.Duration
	cpu        time.Duration // process user+sys minus generator time
	mallocs    uint64
	allocBytes uint64
	heap       uint64
	total      time.Duration

	// Layer counters over the burst phase (deltas) and gauges at its end.
	server   metrics.ServerStats
	router   metrics.RouterStats
	client   metrics.ClientStats
	gauges   metrics.ServerStats
	encodes  int
	hits     uint64
	depthMax int
	queueMax int
	ctrs     [3]int64 // coalesced, superseded, drops

	// Journal figures (lanes4_wal).
	walBytes   int64
	walStats   durable.Stats
	lagEnd     uint64
	syncDrain  time.Duration
	recover    time.Duration
	retainTime time.Duration
}

func newPass(sp *spec, w *manhattan.World, init *world.State, seconds int, tr *tracer) *pass {
	return &pass{
		sp: sp, w: w, init: init, cfg: sp.cfg(w), seconds: seconds, tr: tr,
		byID: make(map[action.ClientID]*slot),
	}
}

// decodeFrame decodes one framed message: the 4-byte length and the
// type byte wire.AppendFrame and wire.NewFrame put in front, then the
// payload. It is wire.ReadFrame without the reader.
func decodeFrame(b []byte) (wire.Msg, error) {
	return wire.Decode(wire.MsgType(b[4]), b[5:])
}

// charge books the time since the last call to s.
func (p *pass) charge(s side) {
	now := time.Now()
	p.acc[s] += now.Sub(p.mark)
	p.mark = now
}

// run executes the pass: set-up, warm-up, burst, solo, drain, checks.
func (p *pass) run(n int) (err error) {
	start := time.Now()
	p.mark = start
	if err := p.setUp(n); err != nil {
		return err
	}
	defer func() {
		if cerr := p.tearDown(); err == nil {
			err = cerr
		}
	}()

	rounds, solo := scaled(p.sp.rounds, p.seconds), scaled(p.sp.solo, p.seconds)
	for r := 0; r < max(rounds/20, 2); r++ {
		p.round(r)
	}
	p.charge(sideIdle)
	p.res.setup = time.Since(start)

	p.burstPhase(rounds)
	p.drain()
	p.soloPhase(solo)
	p.drain()
	p.charge(sideIdle)

	if err := p.gate(); err != nil {
		return err
	}
	p.res.counts = p.c
	if err := p.settleJournal(); err != nil {
		return err
	}
	p.res.heap = p.serverHeap()
	p.res.total = time.Since(start)
	return nil
}

// setUp builds the engine (and store) and joins every client.
func (p *pass) setUp(n int) error {
	if p.sp.journal {
		p.dir = filepath.Join(scratchRoot, fmt.Sprintf("wal-%s-%d-%d", p.sp.name, os.Getpid(), n))
		if err := os.RemoveAll(p.dir); err != nil {
			return err
		}
		store, _, err := durable.Open(p.dir, p.init, durable.Options{
			Fsync:        durable.FsyncInterval,
			FsyncEvery:   5 * time.Millisecond,
			ResumeWindow: p.cfg.ResumeWindow,
		})
		if err != nil {
			return err
		}
		p.store = store
	}
	p.eng = shard.NewEngine(p.cfg, p.init)
	p.flusher, _ = p.eng.(core.Flusher)
	if p.store != nil {
		if p.tr != nil {
			p.journal = &timedJournal{inner: p.store, tr: p.tr}
			p.eng.SetJournal(p.journal)
		} else {
			p.eng.SetJournal(p.store)
		}
	}
	// transport.NewServer's rule for the superseding delivery queue.
	_, canSnapshot := p.eng.(core.Superseder)
	p.sup = canSnapshot && p.cfg.ResumeWindow > 0
	p.nextTickMs = p.cfg.PushIntervalMs()

	for i := 1; i <= p.sp.clients; i++ {
		s := &slot{avatar: manhattan.AvatarID(i)}
		p.slots = append(p.slots, s)
		if err := p.join(s); err != nil {
			return err
		}
	}
	return nil
}

// join registers a fresh client for s the way transport.Server does: the
// server side registers it and encodes a Welcome carrying the initial
// world; the client side decodes it and seeds its two world versions.
func (p *pass) join(s *slot) error {
	p.nextID++
	id := p.nextID
	p.tr.begin(opSession, 0)
	p.eng.RegisterClient(id, 0)
	var token uint64
	if r, ok := p.eng.(core.Resumer); ok {
		token = r.SessionToken(id)
	}
	p.tr.end()
	ids := p.init.IDs()
	writes := make([]world.Write, 0, len(ids))
	for _, oid := range ids {
		v, _ := p.init.Get(oid)
		writes = append(writes, world.Write{ID: oid, Val: v.Clone()})
	}
	p.tr.begin(opEncodeDown, 0)
	f := wire.NewFrame(&wire.Welcome{You: id, Token: token, Init: writes})
	p.tr.end()
	s.q = transport.NewSendQueue(sendQueueCap, p.sup, &p.ctrs)
	p.c.DownBytes += f.Len()
	p.c.DownFrames++
	p.charge(sideServer)

	p.tr.begin(opDecodeDown, 0)
	msg, err := decodeFrame(f.Bytes())
	p.tr.end()
	f.Release()
	if err != nil {
		return fmt.Errorf("welcome: %w", err)
	}
	welcome := msg.(*wire.Welcome)
	p.tr.begin(opClientJoin, 0)
	st := world.NewState()
	for _, wr := range welcome.Init {
		st.Set(wr.ID, wr.Val)
	}
	s.cl = core.NewClient(welcome.You, p.cfg, st)
	s.cl.SetBoot(welcome.Boot)
	p.tr.end()
	s.id, s.token, s.inflight, s.act = welcome.You, welcome.Token, 0, 0
	p.byID[s.id] = s
	p.charge(sideClient)
	return nil
}

// round is one closed-loop burst round. The downlink a round applies is
// the previous round's: without that one-round link lag the uncommitted
// queue is empty at tick time and Tick is a no-op.
func (p *pass) round(r int) {
	if p.sp.churn {
		p.slots[r%len(p.slots)].skip = true
	}
	p.popAll()
	p.charge(sideServer)
	p.applyAll()
	p.charge(sideClient)
	p.generate()
	p.charge(sideGen)
	p.submitAll()
	p.charge(sideClient)
	p.serveUplink()
	p.charge(sideServer)
	if p.sp.churn {
		p.cycle(p.slots[r%len(p.slots)], p.c.Cycles%4 == 3)
	}
	p.nowMs += p.w.Cfg.StepMs
	p.tick()
	p.charge(sideServer)
	if n := p.eng.QueueLen(); n > p.queueMax {
		p.queueMax = n
	}
}

func (p *pass) popAll() {
	for _, s := range p.dirty {
		p.tr.begin(opPopAll, s.act)
		s.frames = s.q.PopAll(s.frames[:0], popBytes)
		p.tr.end()
		if len(s.frames) > p.depthMax {
			p.depthMax = len(s.frames)
		}
		p.c.DownFrames += len(s.frames)
		for _, f := range s.frames {
			p.c.DownBytes += f.Len()
		}
	}
}

func (p *pass) applyAll() {
	for _, s := range p.dirty {
		for i, f := range s.frames {
			p.tr.begin(opDecodeDown, s.act)
			msg, err := decodeFrame(f.Bytes())
			p.tr.end()
			f.Release()
			s.frames[i] = nil
			if err != nil {
				p.violate("client %d: downlink decode: %v", s.id, err)
				continue
			}
			p.tr.begin(opClientHandle, s.act)
			out := s.cl.HandleMsg(msg)
			p.tr.end()
			p.absorb(s, out)
		}
		s.dirty = false
	}
	p.dirty = p.dirty[:0]
}

// absorb books a client output and encodes what it owes the server.
func (p *pass) absorb(s *slot, out core.ClientOutput) {
	for _, v := range out.Violations {
		p.violate("%s", v)
	}
	if n := len(out.Commits) + len(out.DroppedLocal); n > 0 {
		p.c.Commits += len(out.Commits)
		p.c.Drops += len(out.DroppedLocal)
		s.inflight -= n
		p.resolved += n
	}
	for _, m := range out.ToServer {
		p.sendUp(s, m)
	}
}

func (p *pass) violate(format string, args ...any) {
	p.c.Violations++
	if p.violation == "" {
		p.violation = fmt.Sprintf(format, args...)
	}
}

func (p *pass) sendUp(s *slot, m wire.Msg) {
	p.tr.begin(opEncodeUp, s.act)
	off := len(p.upBuf)
	p.upBuf = wire.AppendFrame(p.upBuf, m)
	p.tr.end()
	p.upMsgs = append(p.upMsgs, upMsg{from: s, off: off, end: len(p.upBuf)})
}

func (p *pass) generate() {
	for _, s := range p.slots {
		if s.skip {
			s.skip = false
			continue
		}
		if s.inflight > 0 {
			continue
		}
		p.newMove(s)
	}
}

func (p *pass) newMove(s *slot) {
	id := s.cl.NextActionID()
	p.tr.begin(opGen, actKey(id))
	mv, err := p.w.NewMove(id, s.avatar, s.cl.Optimistic())
	p.tr.end()
	if err != nil {
		p.violate("client %d: %v", s.id, err)
		return
	}
	p.moves = append(p.moves, move{s, mv})
}

func (p *pass) submitAll() {
	for _, m := range p.moves {
		s := m.s
		s.act = actKey(m.mv.ID())
		p.tr.begin(opClientSubmit, s.act)
		msg, _ := s.cl.Submit(m.mv)
		p.tr.end()
		p.sendUp(s, msg)
		s.inflight++
		p.c.Submitted++
	}
	p.moves = p.moves[:0]
}

// serveUplink is the server's half of a round: decode and handle every
// uplink frame in arrival order (completions were emitted before the
// round's submissions), then flush the router's open epoch.
func (p *pass) serveUplink() {
	for _, m := range p.upMsgs {
		p.tr.begin(opDecodeUp, m.from.act)
		msg, err := decodeFrame(p.upBuf[m.off:m.end])
		p.tr.end()
		if err != nil {
			p.violate("server: uplink decode: %v", err)
			continue
		}
		o := opCompletion
		switch msg.Type() {
		case wire.TypeSubmit:
			o = opSubmit
		case wire.TypeResume:
			o = opSession
		}
		p.tr.begin(o, m.from.act)
		out := p.eng.HandleMsg(m.from.id, msg, p.nowMs)
		p.tr.end()
		p.dispatch(out)
	}
	p.c.UpBytes += len(p.upBuf)
	p.upBuf, p.upMsgs = p.upBuf[:0], p.upMsgs[:0]
	if p.flusher != nil {
		p.tr.begin(opFlush, 0)
		out := p.flusher.Flush()
		p.tr.end()
		p.dispatch(out)
	}
}

// dispatch is transport.Server.dispatchReplies without the socket: each
// reply is encoded once into a pooled frame (sibling push batches share
// their envelope section through the EncodeCache) and handed to the
// recipient's delivery queue.
func (p *pass) dispatch(out core.ServerOutput) {
	if len(out.Replies) == 0 {
		return
	}
	for i := range out.Replies {
		rep := &out.Replies[i]
		s := p.byID[rep.To]
		if s == nil {
			continue // the client left; the transport drops these too
		}
		if p.inTick {
			if b, ok := rep.Msg.(*wire.Batch); ok {
				p.c.PushReplies++
				p.c.PushEnvs += len(b.Envs)
			}
		}
		p.tr.begin(opEncodeDown, s.act)
		f := wire.NewFrameCached(&p.cache, rep.Msg)
		p.tr.end()
		p.tr.begin(opEnqueue, s.act)
		v := s.q.Enqueue(f, rep.Deliver)
		p.tr.end()
		if v != transport.Enqueued && v != transport.Coalesced {
			p.rejects++
		}
		if !s.dirty {
			s.dirty = true
			p.dirty = append(p.dirty, s)
		}
	}
	p.encodes += len(out.Replies)
	p.cache.Reset()
}

// tick runs the First Bound push cycles that fell due; like the
// transport, it arms no ticker below ModeFirstBound.
func (p *pass) tick() {
	if p.cfg.Mode < core.ModeFirstBound {
		return
	}
	p.inTick = true
	for p.nextTickMs <= p.nowMs {
		p.tr.begin(opTick, 0)
		out := p.eng.Tick(p.nextTickMs)
		p.tr.end()
		p.c.Ticks++
		p.dispatch(out)
		p.nextTickMs += p.cfg.PushIntervalMs()
	}
	p.inTick = false
}

// cycle is one churn step. The slot sat this round out, so its last move
// has installed and it holds nothing in flight. It leaves — the server
// unregisters it and its queue dies with the connection — and then
// either a fresh client joins in its place or, when resume is set, the
// same client reconnects: the handshake is synchronous, as in
// transport.Client, so its Resume is served at once and the CatchUp
// that revives it waits in the new queue for the next round.
func (p *pass) cycle(s *slot, resume bool) {
	p.c.Cycles++
	p.tr.begin(opSession, 0)
	p.eng.UnregisterClient(s.id)
	p.tr.end()
	s.q.Close()
	if !resume {
		delete(p.byID, s.id)
		if err := p.join(s); err != nil {
			p.violate("rejoin: %v", err)
		}
		return
	}
	s.q = transport.NewSendQueue(sendQueueCap, p.sup, &p.ctrs)
	p.charge(sideServer)
	p.sendUp(s, &wire.Resume{Token: s.token, LastBatchSeq: s.cl.LastAppliedBatch()})
	p.charge(sideClient)
	p.serveUplink()
	p.charge(sideServer)
}

// burstPhase is the timed closed loop. Per-round times feed the
// quiet-time estimator; allocation and CPU counters bracket the phase.
func (p *pass) burstPhase(rounds int) {
	res := &p.res
	res.srv, res.cli = make([]float64, rounds), make([]float64, rounds)
	var before, after runtime.MemStats
	before0, router0, client0 := p.eng.Metrics(), p.routerStats(), p.clientStats()
	enc0, hits0, c0 := p.encodes, p.cache.Hits(), p.c
	p.depthMax, p.queueMax = 0, 0
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	p.tr.record(true)
	start := time.Now()
	p.mark = start
	acc0 := p.acc
	for r := 0; r < rounds; r++ {
		a := p.acc
		p.round(r)
		res.srv[r] = (p.acc[sideServer] - a[sideServer]).Seconds()
		res.cli[r] = (p.acc[sideClient] - a[sideClient]).Seconds()
	}
	res.burstWall = time.Since(start)
	p.tr.record(false)
	if p.tr != nil {
		p.tr.burstEnd = len(p.tr.spans)
	}
	for i := range res.burst {
		res.burst[i] = p.acc[i] - acc0[i]
	}
	res.cpu = cpuTime() - cpu0 - res.burst[sideGen]
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc

	res.burstCounts = p.c.sub(c0)

	res.gauges = p.eng.Metrics()
	res.server = subServer(res.gauges, before0)
	res.router = subRouter(p.routerStats(), router0)
	res.client = subClient(p.clientStats(), client0)
	res.encodes, res.hits = p.encodes-enc0, p.cache.Hits()-hits0
	res.depthMax, res.queueMax = p.depthMax, p.queueMax
	res.ctrs = [3]int64{p.ctrs.Coalesced.Load(), p.ctrs.Superseded.Load(), p.ctrs.Drops.Load()}
	if p.journal != nil {
		res.retainTime = time.Duration(p.journal.retainNs.Load())
	}
	p.mark = time.Now()
}

// soloPhase submits one action at a time and drains it to quiescence —
// submit, reply, commit, completion, install — before the next. The
// sample is the time from Client.Submit to the commit, generator
// excluded; ticks run between actions.
func (p *pass) soloPhase(n int) {
	p.res.solo = make([]float64, 0, n)
	p.tr.record(true)
	step := p.w.Cfg.StepMs / float64(len(p.slots))
	for i := 0; i < n; i++ {
		s := p.slots[i%len(p.slots)]
		p.mark = time.Now()
		p.newMove(s)
		p.charge(sideGen)
		t0, pending := p.mark, p.resolved
		p.submitAll()
		p.charge(sideClient)
		for p.busy() {
			p.deliver()
			if pending >= 0 && p.resolved > pending {
				p.res.solo = append(p.res.solo, p.mark.Sub(t0).Seconds())
				pending = -1
			}
		}
		p.nowMs += step
		p.tick()
		p.charge(sideServer)
	}
	p.tr.record(false)
}

// busy reports whether anything is in flight in either direction.
func (p *pass) busy() bool { return len(p.upMsgs) > 0 || len(p.dirty) > 0 }

// deliver moves everything in flight one hop: the server takes the
// uplink and pops the queues, the clients apply what was popped.
func (p *pass) deliver() {
	p.serveUplink()
	p.popAll()
	p.charge(sideServer)
	p.applyAll()
	p.charge(sideClient)
}

// drain delivers until queues and uplink are empty.
func (p *pass) drain() {
	for p.busy() {
		p.deliver()
	}
}

// gate is the per-pass correctness check.
func (p *pass) gate() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if p.c.Violations > 0 {
		fail("%d client violations, first: %s", p.c.Violations, p.violation)
	}
	if n := p.c.unresolved(); n != 0 {
		fail("%d of %d submissions unresolved after drain", n, p.c.Submitted)
	}
	if p.rejects > 0 {
		fail("%d frames refused by a delivery queue: the workload no longer keeps up", p.rejects)
	}
	p.c.Installed = p.eng.Installed()
	if p.c.Installed != uint64(p.c.Commits) {
		fail("engine installed %d, clients committed %d", p.c.Installed, p.c.Commits)
	}
	st := p.eng.Metrics()
	if st.TotalSubmitted != p.c.Submitted || st.TotalDropped+st.RateLimited != p.c.Drops {
		fail("engine saw %d submissions and %d drops, clients %d and %d",
			st.TotalSubmitted, st.TotalDropped+st.RateLimited, p.c.Submitted, p.c.Drops)
	}
	if st.ResumesRejected > 0 {
		fail("%d resumes rejected", st.ResumesRejected)
	}
	if n := integrityViolations(st); n > 0 {
		fail("%d integrity violations among honest clients", n)
	}
	if rs := p.routerStats(); rs.Epochs > 0 && rs.PartitionedEpochs*10 < rs.Epochs*9 {
		fail("%d of %d epochs ran partitioned, need nine in ten: the villages leak", rs.PartitionedEpochs, rs.Epochs)
	}
	zs := p.eng.Authoritative()
	for _, s := range p.slots {
		if s.inflight != 0 || s.cl.QueueLen() != 0 {
			fail("client %d still has %d actions queued", s.id, s.cl.QueueLen())
		}
		want, _ := zs.Get(s.avatar)
		if got, ok := s.cl.Stable().Get(s.avatar); !ok || !got.Equal(want) {
			fail("client %d: stable avatar %v, authoritative %v", s.id, got, want)
		}
	}
	return errors.Join(errs...)
}

// serverHeap is the live heap with the client replicas released and the
// engine, queues and store still referenced. Forced: the unforced
// reading varied 4.9–6.8 MB where the forced one holds to 0.01.
func (p *pass) serverHeap() uint64 {
	for _, s := range p.slots {
		s.cl = nil
	}
	runtime.GC()
	runtime.GC() // sync.Pool's victim cache survives one cycle
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(p)
	return ms.HeapAlloc
}

// settleJournal reads how far the log trailed the engine when the pass
// ended, then waits for it: the committer's backlog would otherwise be
// part of the heap reading (it moved server_heap_mb by 6.6 % between
// runs).
func (p *pass) settleJournal() error {
	if p.store == nil {
		return nil
	}
	if st := p.store.Stats(); st.Emitted > st.Durable {
		p.res.lagEnd = st.Emitted - st.Durable
	}
	start := time.Now()
	if err := p.store.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	p.res.syncDrain = time.Since(start)
	p.res.walStats = p.store.Stats()
	return nil
}

// tearDown stops what the pass started and, with a journal, checks that
// the directory recovers to ζS at the installed point.
func (p *pass) tearDown() error {
	if r, ok := p.eng.(*shard.Router); ok {
		r.Close()
	}
	for _, s := range p.slots {
		s.q.Close()
	}
	if p.store == nil {
		return nil
	}
	defer os.RemoveAll(p.dir)
	if err := p.store.Close(); err != nil {
		return fmt.Errorf("journal close: %w", err)
	}
	files, err := filepath.Glob(filepath.Join(p.dir, "*.log"))
	if err != nil {
		return err
	}
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			p.res.walBytes += fi.Size()
		}
	}
	start := time.Now()
	store, rec, err := durable.Open(p.dir, nil, durable.Options{ResumeWindow: p.cfg.ResumeWindow})
	if err != nil {
		return fmt.Errorf("journal reopen: %w", err)
	}
	p.res.recover = time.Since(start)
	if err := store.Close(); err != nil {
		return fmt.Errorf("journal close after recovery: %w", err)
	}
	if rec.Restore.UpTo != p.eng.Installed() {
		return fmt.Errorf("journal recovered through %d, engine installed %d", rec.Restore.UpTo, p.eng.Installed())
	}
	if !rec.State.Equal(p.eng.Authoritative()) {
		return errors.New("journal recovered a state different from ζS")
	}
	return nil
}

func (p *pass) routerStats() metrics.RouterStats {
	if r, ok := p.eng.(*shard.Router); ok {
		return r.RouterMetrics()
	}
	return metrics.RouterStats{}
}

func (p *pass) clientStats() metrics.ClientStats {
	var st metrics.ClientStats
	for _, s := range p.slots {
		st.Merge(s.cl.Metrics())
	}
	return st
}

func integrityViolations(st metrics.ServerStats) int {
	return st.ContractBreaches + st.ForgedCompletions + st.AuditDivergences + st.QuarantinedClients +
		st.RateLimited + st.WriteSetViolations + st.RadiusViolations
}

func subServer(a, b metrics.ServerStats) metrics.ServerStats {
	a.TotalSubmitted -= b.TotalSubmitted
	a.TotalDropped -= b.TotalDropped
	a.TotalQueueScans -= b.TotalQueueScans
	a.ScanSavedEntries -= b.ScanSavedEntries
	a.AuditsRun -= b.AuditsRun
	return a
}

func subRouter(a, b metrics.RouterStats) metrics.RouterStats {
	a.LocalActions -= b.LocalActions
	a.CrossShardActions -= b.CrossShardActions
	a.SpanningActions -= b.SpanningActions
	a.Epochs -= b.Epochs
	a.PartitionedEpochs -= b.PartitionedEpochs
	a.FallbackEpochs -= b.FallbackEpochs
	a.StampNs -= b.StampNs
	a.StampCritNs -= b.StampCritNs
	a.PlanNs -= b.PlanNs
	a.PlanCritNs -= b.PlanCritNs
	a.CommitNs -= b.CommitNs
	a.CommitCritNs -= b.CommitCritNs
	a.MergeNs -= b.MergeNs
	a.InstallNs -= b.InstallNs
	a.InstallCritNs -= b.InstallCritNs
	return a
}

func subClient(a, b metrics.ClientStats) metrics.ClientStats {
	a.Reconciliations -= b.Reconciliations
	a.AppliedRemote -= b.AppliedRemote
	a.AppliedBlind -= b.AppliedBlind
	return a
}

// cpuTime is the process's user+system CPU time: every thread, so the
// collector, the lane workers and the journal committer are in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
