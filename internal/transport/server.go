// Package transport runs the SEVE protocol engines over real TCP — the
// deployment mode of the paper's "real experiments" (Section V), as
// opposed to the discrete-event simulation in package experiments.
//
// Framing is the length-prefixed binary format of package wire. The
// server owns a single engine goroutine driving a core.Engine — the
// single-lane core.Server, or the sharded shard.Router when
// Config.Shards > 1 (the router fans its planning phase out over its own
// lane workers; the transport still talks to it from one goroutine);
// per-connection reader and writer goroutines feed it through channels.
// When the event queue runs dry the loop flushes the router's open
// epoch, so batching never adds latency on an idle link.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/metrics"
	"seve/internal/shard"
	"seve/internal/wire"
	"seve/internal/world"
)

const (
	// sendQueueCap bounds each client's delivery queue in frames; at
	// capacity the SendQueue's superseding ladder (or, without sessions,
	// the historical drop) engages.
	sendQueueCap = 256
	// coalesceBytes caps one coalesced pump write.
	coalesceBytes = 256 << 10
)

// ServerConfig configures a TCP SEVE server.
type ServerConfig struct {
	// Core is the protocol configuration shared with the clients.
	Core core.Config
	// Init is the initial world state, shipped to joining clients in the
	// Welcome message.
	Init *world.State
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Durable, when non-nil, is the durability pipeline from
	// durable.Open: the engine's commit feed is journaled through it
	// (group commit, one segment per generation, epoch checkpoints — the
	// Section II "commit at periodic checkpoints" layer, now entirely
	// off the engine's hot loop). Pair it with Recovery from the same
	// Open so the engine resumes against the journal.
	Durable *durable.Store
	// Recovery, when non-nil, rewinds the engine to the recovered
	// durable point before the accept loop starts: the recovered state
	// replaces Init, the watermarks and session table are restored, and
	// Welcome/CatchUp messages carry the new boot generation.
	Recovery *durable.Recovery
	// ReadTimeout, when positive, is the idle-read deadline applied to
	// each connection: a client that sends nothing (not even the Hello)
	// for this long is disconnected and unregistered, so silently dead
	// links cannot hold slots and interest masks forever. Zero keeps the
	// historical behavior of waiting indefinitely.
	ReadTimeout time.Duration
}

// Server accepts SEVE clients and serializes their actions.
type Server struct {
	cfg    ServerConfig
	engine core.Engine
	// init is the world shipped in Welcome messages: the configured
	// Init, or the recovered state when booting from a journal.
	init *world.State
	// boot is the engine's recovery generation (0 when not restored).
	boot uint64
	// durableStalled remembers that the degrade policy silenced the
	// server, so the log line fires once.
	durableStalled bool
	// superseding selects the SendQueue delivery mode (DESIGN.md §13):
	// true when the engine retains sessions (ResumeWindow > 0) and can
	// answer a mid-session SnapshotCatchUp. HybridRelay fan-out bypasses
	// the per-client plan metadata, so it forces plain FIFO.
	// TestSupersedingEquivalence clears it on its control harness to get
	// the plain-FIFO reference; nothing else writes it after NewServer.
	superseding bool

	events chan serverEvent
	done   chan struct{}

	mu      sync.Mutex
	writers map[action.ClientID]*SendQueue
	nextID  action.ClientID
	started time.Time
	closed  bool
	// conns is every connection a handleConn goroutine owns, so Close can
	// end reads and writes that would otherwise wait on the peer forever.
	conns map[net.Conn]struct{}

	// ctrs is shared by every client's SendQueue so supersession totals
	// survive disconnects.
	ctrs DeliveryCounters

	wg sync.WaitGroup
}

type serverEvent struct {
	from action.ClientID
	msg  wire.Msg
	// join is non-nil for a new connection: the channel receives the
	// assigned id after registration.
	join chan action.ClientID
	// interestMask accompanies a join (Section IV-A subscription).
	interestMask uint64
	// leave marks a disconnect.
	leave bool
	// resume is non-nil when a connection opened with a Resume handshake
	// instead of Hello; resumed receives the resolved id (0 = rejected)
	// once the engine has answered and the writer is registered. A
	// rejection carries the verdict message the connection should write
	// before hanging up — CatchUp{OK: false} for unknown/stale tokens,
	// the Quarantine verdict for a quarantined ledger.
	resume  *wire.Resume
	resumed chan resumeReply
	// writeQ identifies the connection behind a resume or leave: the
	// resume case registers it as the client's writer; the leave case
	// tears the client down only if this queue is still the registered
	// one, so a stale disconnect racing a resumed successor cannot
	// unregister the new connection.
	writeQ *SendQueue
}

// NewServer returns an unstarted server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	init := cfg.Init
	if cfg.Recovery != nil {
		// Boot-time recovery: the journal's reconstructed state IS the
		// world — the engine starts over it and fresh joiners are seeded
		// from it (Algorithm 6 closures cover anything newer).
		init = cfg.Recovery.State
	}
	s := &Server{
		cfg:     cfg,
		engine:  shard.NewEngine(cfg.Core, init),
		init:    init,
		events:  make(chan serverEvent, 1024),
		done:    make(chan struct{}),
		writers: make(map[action.ClientID]*SendQueue),
		started: time.Now(),
		conns:   make(map[net.Conn]struct{}),

		superseding: cfg.Core.ResumeWindow > 0 && !cfg.Core.HybridRelay,
	}
	if cfg.Recovery != nil {
		// Rewind the watermarks and session table to the recovered point:
		// crash-restart = the server resumes against itself.
		s.engine.Restore(cfg.Recovery.Restore)
		s.boot = s.engine.Boot()
	}
	if cfg.Durable != nil {
		s.engine.SetJournal(cfg.Durable)
	}
	return s
}

// Serve accepts connections on l until Close. It blocks.
func (s *Server) Serve(l net.Listener) error {
	s.wg.Add(1)
	go s.engineLoop()

	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Close stops the engine loop and disconnects everyone, including a
// peer that stopped reading mid-handshake. The listener passed to Serve
// must be closed by the caller (Serve returns nil once it observes the
// closed state).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	close(s.done)
	for _, conn := range conns {
		conn.Close()
	}
	s.wg.Wait()
	if c, ok := s.engine.(interface{ Close() }); ok {
		c.Close()
	}
}

// Installed reports the server's installed serial position.
func (s *Server) Installed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Installed()
}

// Metrics snapshots the engine's cumulative counters, folding in the
// transport-level delivery-queue ones.
func (s *Server) Metrics() metrics.ServerStats {
	s.mu.Lock()
	st := s.engine.Metrics()
	s.mu.Unlock()
	st.WriteQueueDrops = int(s.ctrs.Drops.Load())
	bufs, frames := wire.Outstanding()
	st.PoolOutstanding = int(bufs + frames)
	st.FramesSuperseded = int(s.ctrs.Superseded.Load())
	st.FramesCoalesced = int(s.ctrs.Coalesced.Load())
	st.MaxStaleObjects = int(s.ctrs.MaxStale.Load())
	if d := s.cfg.Durable; d != nil {
		ds := d.Stats()
		st.WALGroupCommits = ds.GroupCommits
		st.WALCheckpoints = ds.Checkpoints
		st.WALAppendErrors = ds.AppendErrors
		st.WALShedRecords = ds.ShedRecords
		st.WALRecords = ds.Records
		st.WALWrites = ds.Writes
		st.WALFsyncs = ds.Fsyncs
		st.WALBlockedNs = ds.BlockedNs
		if ds.Emitted > ds.Durable {
			st.WALBehindSeq = ds.Emitted - ds.Durable
		}
	}
	return st
}

// RouterMetrics snapshots the shard router's counters; the zero value
// when the server runs the single-lane engine.
func (s *Server) RouterMetrics() metrics.RouterStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.engine.(*shard.Router); ok {
		return r.RouterMetrics()
	}
	return metrics.RouterStats{}
}

func (s *Server) nowMs() float64 {
	return float64(time.Since(s.started)) / float64(time.Millisecond)
}

// engineLoop owns the core.Server: all protocol state transitions happen
// here, in arrival order, mirroring the simulator's semantics.
func (s *Server) engineLoop() {
	defer s.wg.Done()
	var ticker *time.Ticker
	var tickC <-chan time.Time
	if s.cfg.Core.Mode >= core.ModeFirstBound {
		ticker = time.NewTicker(time.Duration(s.cfg.Core.PushIntervalMs() * float64(time.Millisecond)))
		tickC = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-s.done:
			return
		case <-tickC:
			s.mu.Lock()
			out := s.engine.Tick(s.nowMs())
			s.mu.Unlock()
			s.dispatch(out)
		case ev := <-s.events:
			s.handleEvent(ev)
			if len(s.events) == 0 {
				// Queue ran dry: close the router's open epoch so
				// buffered submissions are answered now rather than on
				// the next arrival.
				s.flushEngine()
			}
		}
	}
}

// flushEngine flushes the engine's open epoch, if it batches at all.
func (s *Server) flushEngine() {
	f, ok := s.engine.(core.Flusher)
	if !ok {
		return
	}
	s.mu.Lock()
	out := f.Flush()
	s.mu.Unlock()
	s.dispatch(out)
}

func (s *Server) handleEvent(ev serverEvent) {
	switch {
	case ev.join != nil:
		s.mu.Lock()
		s.nextID++
		id := s.nextID
		s.engine.RegisterClient(id, ev.interestMask)
		s.mu.Unlock()
		ev.join <- id
	case ev.leave:
		s.mu.Lock()
		if ev.writeQ == nil || s.writers[ev.from] == ev.writeQ {
			s.engine.UnregisterClient(ev.from)
			delete(s.writers, ev.from)
			// The writer pump has exited (or is about to); closing the
			// queue releases anything dispatch enqueued after it stopped
			// draining and makes later enqueues self-releasing no-ops.
			if ev.writeQ != nil {
				ev.writeQ.Close()
			}
		}
		s.mu.Unlock()
	case ev.resume != nil:
		s.handleResume(ev)
	default:
		s.mu.Lock()
		out := s.engine.HandleMsg(ev.from, ev.msg, s.nowMs())
		s.mu.Unlock()
		s.dispatch(out)
	}
}

// handleResume runs the engine's resume verdict and, on acceptance,
// registers the arriving connection's writer BEFORE dispatching, so the
// CatchUp and every replayed batch land on the new connection in order.
// Rejections leave the writer unregistered; the connection goroutine
// writes the CatchUp{OK: false} itself and hangs up.
func (s *Server) handleResume(ev serverEvent) {
	r, ok := s.engine.(core.Resumer)
	if !ok {
		ev.resumed <- resumeReply{reject: &wire.CatchUp{}}
		return
	}
	s.mu.Lock()
	cid, out := r.HandleResume(ev.resume, s.nowMs())
	if cid != 0 {
		if old, dup := s.writers[cid]; dup && old != ev.writeQ {
			// The previous connection is still registered (its reader has
			// not noticed the death yet). The resumed connection wins;
			// the stale leave will no-op against the new queue.
			old.Close()
		}
		s.writers[cid] = ev.writeQ
	}
	s.mu.Unlock()
	if cid != 0 {
		ev.resumed <- resumeReply{id: cid}
		s.dispatch(out)
		return
	}
	// Rejected: relay the engine's verdict (addressed To: 0 — this
	// connection) so a quarantined client hears the Quarantine reason
	// rather than a generic stale-token CatchUp.
	reject := wire.Msg(&wire.CatchUp{})
	if len(out.Replies) == 1 {
		reject = out.Replies[0].Msg
	}
	ev.resumed <- resumeReply{reject: reject}
}

// resumeReply is the engine's answer to a Resume handshake: the
// resolved client id, or (id 0) the rejection verdict to write before
// hanging up.
type resumeReply struct {
	id     action.ClientID
	reject wire.Msg
}

// dispatch fans an engine output out to the writers, then settles any
// snapshot requests the delivery queues raised: for each client whose
// queue overflowed with unsupersedable frames, it asks the engine for a
// blind-write SnapshotCatchUp and dispatches those replies too. The
// snapshot replies go through the same enqueue path; the
// DeliverySnapshot frame replaces the stale queue content in place,
// which is what clears the request.
func (s *Server) dispatch(out core.ServerOutput) {
	if len(out.Replies) > 0 && s.durableSilenced() {
		// DegradeBlock + a dead journal: stop acknowledging. Replies we
		// cannot journal behind must not reach clients, or they would
		// believe in state the log can no longer reproduce.
		return
	}
	needSnap := s.dispatchReplies(out.Replies)
	if len(needSnap) == 0 {
		return
	}
	sup, ok := s.engine.(core.Superseder)
	if !ok {
		return
	}
	for _, cid := range needSnap {
		s.mu.Lock()
		if _, live := s.writers[cid]; !live {
			s.mu.Unlock()
			continue
		}
		snap := sup.SnapshotCatchUp(cid, s.nowMs())
		s.mu.Unlock()
		// The snapshot empties the queue it lands on, so a second
		// NeedSnapshot here is impossible in practice; if one did
		// surface, the queue's wantSnap flag persists and the next
		// dispatch retries.
		s.dispatchReplies(snap.Replies)
	}
}

// durableSilenced reports whether the degrade policy demands the
// server stop acknowledging: the journal latched an I/O error and the
// policy is DegradeBlock (DegradeShed keeps serving and only counts
// the loss). Logs once on the transition.
func (s *Server) durableSilenced() bool {
	d := s.cfg.Durable
	if d == nil || d.Degrade() != durable.DegradeBlock || d.Err() == nil {
		return false
	}
	if !s.durableStalled {
		s.durableStalled = true
		s.cfg.Logf("transport: journal failed (%v); withholding acknowledgements", d.Err())
	}
	return true
}

// dispatchReplies encodes every reply once into a pooled frame and
// enqueues it on the recipient's delivery queue, returning the clients
// whose queues requested a snapshot catch-up. Sibling push batches share
// their envelope section through the per-call EncodeCache, so a fan-out
// of n recipients serializes the (large) envelope bytes exactly once
// plus n small headers. Each frame carries one reference, consumed by
// the queue; s.mu is held only to snapshot the writer map — encoding and
// enqueueing run outside it, so a fan-out to thousands of clients no
// longer blocks handshakes, metrics readers, and the resume path.
func (s *Server) dispatchReplies(reps []core.Reply) []action.ClientID {
	if len(reps) == 0 {
		return nil
	}
	queues := make([]*SendQueue, len(reps))
	s.mu.Lock()
	for i := range reps {
		queues[i] = s.writers[reps[i].To]
	}
	s.mu.Unlock()
	var cache wire.EncodeCache
	defer cache.Reset()
	var needSnap []action.ClientID
	for i := range reps {
		rep := &reps[i]
		q := queues[i]
		if q == nil {
			continue
		}
		f := wire.NewFrameCached(&cache, rep.Msg)
		switch q.Enqueue(f, rep.Deliver) {
		case NeedSnapshot:
			if !slices.Contains(needSnap, rep.To) {
				needSnap = append(needSnap, rep.To)
			}
		case Dropped:
			// A client that cannot drain its queue is effectively dead;
			// dropping here instead of blocking keeps one slow client
			// from stalling the world.
			s.cfg.Logf("transport: client %d write queue full; dropping message", rep.To)
		}
		if _, isQuar := rep.Msg.(*wire.Quarantine); isQuar {
			// Integrity verdict: the client hears why, then the writer
			// pump hangs up. The reader's leave event unregisters the
			// engine-side client; the quarantined ledger itself survives
			// both the unregister and any later resume attempt.
			q.PoisonAfterDrain()
			s.cfg.Logf("transport: client %d quarantined; disconnecting", rep.To)
		}
	}
	return needSnap
}

// handleConn performs the opening handshake — Hello/Welcome for a fresh
// join, Resume/CatchUp for a reconnect — then pumps frames.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	s.armReadDeadline(conn)
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		s.cfg.Logf("transport: handshake read: %v", err)
		return
	}

	writeQ := NewSendQueue(sendQueueCap, s.superseding, &s.ctrs)
	// A handshake cut short by Close may leave frames queued that no pump
	// will drain; closing the queue returns them to the pool.
	defer writeQ.Close()
	// connDone unblocks the writer pump when this reader exits, so a
	// vanished client cannot strand the pump goroutine (and the pooled
	// frames queued behind it) until server shutdown.
	connDone := make(chan struct{})
	defer close(connDone)

	var id action.ClientID
	// leave tells the engine loop this connection is gone, so it
	// unregisters the client and drops its writer.
	leave := func() {
		select {
		case s.events <- serverEvent{from: id, leave: true, writeQ: writeQ}:
		case <-s.done:
		}
	}
	switch h := msg.(type) {
	case *wire.Hello:
		join := make(chan action.ClientID, 1)
		select {
		case s.events <- serverEvent{join: join, interestMask: h.InterestMask}:
		case <-s.done:
			return
		}
		select {
		case id = <-join:
		case <-s.done:
			return
		}

		var token uint64
		s.mu.Lock()
		s.writers[id] = writeQ
		initWrites := s.init.Writes()
		if r, ok := s.engine.(core.Resumer); ok {
			token = r.SessionToken(id)
		}
		s.mu.Unlock()

		if err := wire.WriteFrame(conn, &wire.Welcome{You: id, Token: token, Boot: s.boot, Init: initWrites}); err != nil {
			s.cfg.Logf("transport: welcome write to %d: %v", id, err)
			leave()
			return
		}
		s.cfg.Logf("transport: client %d joined from %s", id, conn.RemoteAddr())
	case *wire.Resume:
		resumed := make(chan resumeReply, 1)
		select {
		case s.events <- serverEvent{resume: h, resumed: resumed, writeQ: writeQ}:
		case <-s.done:
			return
		}
		var rr resumeReply
		select {
		case rr = <-resumed:
		case <-s.done:
			return
		}
		id = rr.id
		if id == 0 {
			// Unknown/stale token or quarantined ledger: write the
			// engine's verdict and hang up. The client treats either as
			// permanent and surfaces a violation.
			_ = wire.WriteFrame(conn, rr.reject)
			s.cfg.Logf("transport: resume rejected from %s", conn.RemoteAddr())
			return
		}
		s.cfg.Logf("transport: client %d resumed from %s", id, conn.RemoteAddr())
	default:
		s.cfg.Logf("transport: expected Hello or Resume, got type %d", msg.Type())
		return
	}

	// Writer pump: coalesce whatever has queued since the last write
	// into one pooled buffer and hand the kernel a single Write —
	// per-tick fan-out becomes one syscall per connection instead of one
	// per frame. PopAll transfers frame ownership here; closing the queue
	// on exit releases anything still buffered so it returns to the pool.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer writeQ.Close()
		var frames []*wire.Frame
		for {
			select {
			case <-writeQ.Notify():
				for {
					// Cap one coalesced write; a pathological backlog
					// flushes in several writes rather than growing an
					// unpoolable buffer.
					frames = writeQ.PopAll(frames[:0], coalesceBytes)
					if len(frames) == 0 {
						break
					}
					size := 0
					for _, f := range frames {
						size += f.Len()
					}
					buf := wire.GetBuf(size)
					for _, f := range frames {
						buf = append(buf, f.Bytes()...)
						f.Release()
					}
					_, err := conn.Write(buf)
					wire.PutBuf(buf)
					if err != nil {
						return
					}
				}
				if writeQ.IsClosed() {
					return
				}
				if writeQ.Poisoned() {
					// Quarantine verdict delivered; hang up. The closed
					// conn errors the reader pump, whose leave event
					// unregisters the client.
					conn.Close()
					return
				}
			case <-connDone:
				return
			case <-s.done:
				return
			}
		}
	}()

	// Reader pump (this goroutine).
	for {
		s.armReadDeadline(conn)
		m, err := wire.ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.cfg.Logf("transport: client %d read: %v", id, err)
			}
			leave()
			return
		}
		select {
		case s.events <- serverEvent{from: id, msg: m}:
		case <-s.done:
			return
		}
	}
}

// armReadDeadline applies the idle-read deadline, if one is configured.
// Re-armed before every frame read, so the deadline measures silence,
// not connection lifetime.
func (s *Server) armReadDeadline(conn net.Conn) {
	if s.cfg.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
}
