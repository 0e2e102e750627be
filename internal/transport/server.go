// Package transport runs the SEVE protocol engines over real TCP — the
// deployment mode of the paper's "real experiments" (Section V), as
// opposed to the discrete-event simulation in package experiments.
//
// Framing is the length-prefixed binary format of package wire. A Hub
// holds the core.Engine — the single-lane core.Server, or the sharded
// shard.Router when Config.Shards > 1 — and the one path from an engine
// output to the clients' delivery queues; it owns no socket or
// goroutine, so harnesses drive it directly. The Server runs one engine
// goroutine driving the Hub, fed through a channel by per-connection
// reader goroutines, with a writer goroutine draining each queue. When
// the event queue runs dry the loop flushes the router's open epoch, so
// batching never adds latency on an idle link.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
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

// Server accepts SEVE clients and serializes their actions: a Hub plus
// the listener, the reader and writer pumps and the ticker.
type Server struct {
	cfg ServerConfig
	hub *Hub

	events chan serverEvent
	done   chan struct{}

	// mu is the hub's locker, held around engine calls only, and guards
	// closed and conns.
	mu      sync.Mutex
	started time.Time
	closed  bool
	// conns is every connection a handleConn goroutine owns, so Close can
	// end reads and writes that would otherwise wait on the peer forever.
	conns map[net.Conn]struct{}

	wg sync.WaitGroup
}

type serverEvent struct {
	from action.ClientID
	// msg is nil for a disconnect.
	msg wire.Msg
	// opened, for a connection's Hello or Resume, receives the hub's
	// answer: from the client's id (0 if refused), the frame to write first.
	opened chan serverEvent
	// writeQ is the connection's queue: registered as the client's writer
	// by a Hello or an accepted Resume, and the one a leave may tear down.
	writeQ *SendQueue
}

// NewServer returns an unstarted server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:     cfg,
		events:  make(chan serverEvent, 1024),
		done:    make(chan struct{}),
		started: time.Now(),
		conns:   make(map[net.Conn]struct{}),
	}
	s.hub = NewHub(cfg, &s.mu)
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
	if c, ok := s.hub.engine.(interface{ Close() }); ok {
		c.Close()
	}
}

// Installed reports the server's installed serial position.
func (s *Server) Installed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hub.engine.Installed()
}

// Metrics snapshots the engine's cumulative counters, folding in the
// transport-level delivery-queue and journal ones.
func (s *Server) Metrics() metrics.ServerStats {
	st := s.hub.Metrics()
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
	if r, ok := s.hub.engine.(*shard.Router); ok {
		return r.RouterMetrics()
	}
	return metrics.RouterStats{}
}

func (s *Server) nowMs() float64 {
	return float64(time.Since(s.started)) / float64(time.Millisecond)
}

// engineLoop drives the hub: all protocol state transitions happen
// here, in arrival order, mirroring the simulator's semantics.
func (s *Server) engineLoop() {
	defer s.wg.Done()
	var tickC <-chan time.Time
	if s.cfg.Core.Mode >= core.ModeFirstBound {
		ticker := time.NewTicker(time.Duration(s.cfg.Core.PushIntervalMs() * float64(time.Millisecond)))
		tickC = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-s.done:
			return
		case <-tickC:
			s.hub.Tick(s.nowMs())
		case ev := <-s.events:
			switch {
			case ev.msg == nil:
				s.hub.Leave(ev.from, ev.writeQ)
			case ev.opened == nil:
				// After the handshake even a Hello is an engine message.
				s.hub.Handle(ev.from, ev.msg, s.nowMs())
			default: // the handshake: a Hello or a Resume
				var o serverEvent
				if h, ok := ev.msg.(*wire.Hello); ok {
					o.from, o.msg = s.hub.Join(h.InterestMask, ev.writeQ)
				} else {
					o.from, o.msg = s.hub.Resume(ev.msg.(*wire.Resume), ev.writeQ, s.nowMs())
				}
				ev.opened <- o
			}
			if len(s.events) == 0 {
				// Queue ran dry: close the router's open epoch so
				// buffered submissions are answered now rather than on
				// the next arrival.
				s.hub.Flush(s.nowMs())
			}
		}
	}
}

// post hands ev to the engine loop, false once the server is closed.
func (s *Server) post(ev serverEvent) bool {
	select {
	case s.events <- ev:
		return true
	case <-s.done:
		return false
	}
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

	writeQ := s.hub.NewQueue(sendQueueCap, supersedes(s.cfg.Core))
	// A handshake cut short by Close may leave frames queued that no pump
	// will drain; closing the queue returns them to the pool.
	defer writeQ.Close()
	// connDone unblocks the writer pump when this reader exits, so a
	// vanished client cannot strand the pump goroutine (and the pooled
	// frames queued behind it) until server shutdown.
	connDone := make(chan struct{})
	defer close(connDone)

	var id action.ClientID
	// leave posts this connection's disconnect to the engine loop.
	leave := func() { s.post(serverEvent{from: id, writeQ: writeQ}) }
	_, hello := msg.(*wire.Hello)
	if _, resume := msg.(*wire.Resume); !hello && !resume {
		s.cfg.Logf("transport: expected Hello or Resume, got type %d", msg.Type())
		return
	}
	opened := make(chan serverEvent, 1)
	if !s.post(serverEvent{msg: msg, opened: opened, writeQ: writeQ}) {
		return
	}
	var o serverEvent
	select {
	case o = <-opened:
	case <-s.done:
		return
	}
	id = o.from
	switch {
	case id == 0:
		// Unknown/stale token or quarantined ledger: write the engine's
		// verdict and hang up. The client treats either as permanent and
		// surfaces a violation.
		_ = wire.WriteFrame(conn, o.msg)
		s.cfg.Logf("transport: resume rejected from %s", conn.RemoteAddr())
		return
	case !hello:
		s.cfg.Logf("transport: client %d resumed from %s", id, conn.RemoteAddr())
	default:
		if err := wire.WriteFrame(conn, o.msg); err != nil {
			s.cfg.Logf("transport: welcome write to %d: %v", id, err)
			leave()
			return
		}
		s.cfg.Logf("transport: client %d joined from %s", id, conn.RemoteAddr())
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
		if !s.post(serverEvent{from: id, msg: m}) {
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
