package transport

import (
	"slices"
	"sync"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/metrics"
	"seve/internal/shard"
	"seve/internal/wire"
	"seve/internal/world"
)

// Hub is the socketless core of the server: the engine, the world a
// Welcome carries, and the writer table, with the one path from an
// engine output to the delivery queues. It starts no goroutine and
// reads no clock. One goroutine drives it; the locker it is given
// guards engine calls and writer-table changes, never an encode or an
// Enqueue, so other goroutines may read Metrics and Queue meanwhile.
type Hub struct {
	mu     sync.Locker
	engine engine
	// init is the world shipped in Welcome messages: the configured
	// Init, or the recovered state when booting from a journal.
	init *world.State
	// boot is the engine's recovery generation (0 when not restored).
	boot uint64
	// journal is the durability pipeline's failure state, nil without one.
	journal interface {
		Degrade() durable.DegradePolicy
		Err() error
	}
	// stalled remembers that the degrade policy silenced the hub, so
	// the log line fires once.
	stalled bool
	logf    func(format string, args ...any)

	// writers is written under mu, and only by the driving goroutine,
	// which alone reads it without mu.
	writers map[action.ClientID]*SendQueue
	nextID  action.ClientID
	// ctrs outlives disconnects: every queue NewQueue builds counts here.
	ctrs                DeliveryCounters
	enqueued, snapshots int
}

// engine is what shard.NewEngine builds; both engines resume and snapshot.
type engine interface {
	core.Engine
	core.Resumer
	core.Superseder
}

// NewHub builds the engine cfg describes behind mu: over cfg.Recovery's
// state and rewound to its point when set (crash-restart is the server
// resuming against itself), journaling to cfg.Durable when set.
// cfg.Logf may be nil.
func NewHub(cfg ServerConfig, mu sync.Locker) *Hub {
	h := &Hub{mu: mu, init: cfg.Init, logf: cfg.Logf, writers: make(map[action.ClientID]*SendQueue)}
	if h.logf == nil {
		h.logf = func(string, ...any) {}
	}
	if cfg.Recovery != nil {
		h.init = cfg.Recovery.State
	}
	h.engine = shard.NewEngine(cfg.Core, h.init).(engine)
	if cfg.Recovery != nil {
		h.engine.Restore(cfg.Recovery.Restore)
		h.boot = h.engine.Boot()
		// Fresh joins take ids above every client the journal recovered.
		for _, s := range cfg.Recovery.Restore.Sessions {
			h.nextID = max(h.nextID, s.ID)
		}
		for _, q := range cfg.Recovery.Restore.Quarantined {
			h.nextID = max(h.nextID, q.ID)
		}
	}
	if cfg.Durable != nil {
		h.engine.SetJournal(cfg.Durable)
		h.journal = cfg.Durable
	}
	return h
}

// supersedes selects the SendQueue delivery mode (DESIGN.md §13): true
// when the engine retains sessions (ResumeWindow > 0) and can answer a
// mid-session SnapshotCatchUp. HybridRelay fan-out bypasses the
// per-client plan metadata, so it forces plain FIFO.
func supersedes(cfg core.Config) bool { return cfg.ResumeWindow > 0 && !cfg.HybridRelay }

// NewQueue builds a delivery queue counted in the hub's Metrics.
func (h *Hub) NewQueue(capacity int, superseding bool) *SendQueue {
	return NewSendQueue(capacity, superseding, &h.ctrs)
}

// Join registers a new client with interest mask mask and delivery
// queue q, and returns its id and Welcome. Replies dispatched before the
// caller writes the Welcome wait in q.
func (h *Hub) Join(mask uint64, q *SendQueue) (action.ClientID, *wire.Welcome) {
	w := &wire.Welcome{Boot: h.boot}
	h.mu.Lock()
	h.nextID++
	w.You = h.nextID
	h.engine.RegisterClient(w.You, mask)
	h.writers[w.You] = q
	w.Token = h.engine.SessionToken(w.You)
	h.mu.Unlock()
	w.Init = h.init.Writes()
	return w.You, w
}

// Leave tears client id down if q is still its registered queue, so a
// stale disconnect racing a resumed successor cannot unregister the new
// connection. Closing q releases anything dispatched after its pump
// stopped and makes later enqueues self-releasing no-ops.
func (h *Hub) Leave(id action.ClientID, q *SendQueue) {
	if h.writers[id] != q {
		return
	}
	h.mu.Lock()
	h.engine.UnregisterClient(id)
	delete(h.writers, id)
	h.mu.Unlock()
	q.Close()
}

// Resume runs the engine's resume verdict. On acceptance it registers
// q as the client's queue BEFORE dispatching, so the CatchUp and every
// replayed batch land on q in order, and returns the client's id. On
// refusal it returns id 0 and the verdict the connection should write
// before hanging up: CatchUp{OK: false} for an unknown or stale token,
// the Quarantine verdict for a quarantined ledger. Either way the rest
// of the output (a sharded engine flushes its open epoch first) is
// dispatched.
func (h *Hub) Resume(m *wire.Resume, q *SendQueue, nowMs float64) (action.ClientID, wire.Msg) {
	h.mu.Lock()
	cid, out := h.engine.HandleResume(m, nowMs)
	old := h.writers[cid]
	if cid != 0 {
		h.writers[cid] = q
	}
	h.mu.Unlock()
	if old != nil && old != q {
		// The previous connection is still registered (its reader has
		// not noticed the death yet). The resumed connection wins; the
		// stale leave will no-op against the new queue.
		old.Close()
	}
	h.dispatch(out, nowMs)
	if cid != 0 {
		return cid, nil
	}
	// The verdict is addressed To: 0, which no writer holds.
	i := slices.IndexFunc(out.Replies, func(r core.Reply) bool { return r.To == 0 })
	return 0, out.Replies[i].Msg
}

// Handle runs one client message through the engine and dispatches the
// output, which it returns; the output is valid until the next engine
// call.
func (h *Hub) Handle(from action.ClientID, m wire.Msg, nowMs float64) core.ServerOutput {
	h.mu.Lock()
	out := h.engine.HandleMsg(from, m, nowMs)
	h.mu.Unlock()
	h.dispatch(out, nowMs)
	return out
}

// Tick runs the engine's push cycle and dispatches it.
func (h *Hub) Tick(nowMs float64) {
	h.mu.Lock()
	out := h.engine.Tick(nowMs)
	h.mu.Unlock()
	h.dispatch(out, nowMs)
}

// Flush closes the engine's open epoch, if it batches at all, and
// dispatches it: call it when the inbound queue runs dry.
func (h *Hub) Flush(nowMs float64) {
	f, ok := h.engine.(core.Flusher)
	if !ok {
		return
	}
	h.mu.Lock()
	out := f.Flush()
	h.mu.Unlock()
	h.dispatch(out, nowMs)
}

// Queue returns client id's registered delivery queue, nil if none.
func (h *Hub) Queue(id action.ClientID) *SendQueue {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.writers[id]
}

// Engine runs f on the engine under the hub's locker, as Client.Engine does.
func (h *Hub) Engine(f func(core.Engine)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f(h.engine)
}

// Counts reports replies enqueued on a registered queue and snapshots issued.
func (h *Hub) Counts() (enqueued, snapshots int) { return h.enqueued, h.snapshots }

// Metrics snapshots the engine's cumulative counters, folding in the
// delivery queues' ones and the pool balance.
func (h *Hub) Metrics() metrics.ServerStats {
	h.mu.Lock()
	st := h.engine.Metrics()
	h.mu.Unlock()
	st.WriteQueueDrops = int(h.ctrs.Drops.Load())
	bufs, frames := wire.Outstanding()
	st.PoolOutstanding = int(bufs + frames)
	st.FramesSuperseded = int(h.ctrs.Superseded.Load())
	st.FramesCoalesced = int(h.ctrs.Coalesced.Load())
	st.MaxStaleObjects = int(h.ctrs.MaxStale.Load())
	return st
}

// dispatch fans an engine output out to the writers, then settles any
// snapshot requests the delivery queues raised: for each client whose
// queue overflowed with unsupersedable frames, it asks the engine for a
// blind-write SnapshotCatchUp and dispatches those replies too — the
// newest state supersedes every queued update (UQP). The snapshot
// replies go through the same enqueue path; the DeliverySnapshot frame
// replaces the stale queue content in place, which is what clears the
// request.
func (h *Hub) dispatch(out core.ServerOutput, nowMs float64) {
	if len(out.Replies) == 0 || h.silenced() {
		// DegradeBlock + a dead journal: stop acknowledging. Replies we
		// cannot journal behind must not reach clients, or they would
		// believe in state the log can no longer reproduce.
		return
	}
	for _, cid := range h.dispatchReplies(out.Replies) {
		if h.writers[cid] == nil {
			continue
		}
		h.mu.Lock()
		snap := h.engine.SnapshotCatchUp(cid, nowMs)
		h.mu.Unlock()
		h.snapshots++
		// The snapshot empties its queue; should it still ask for one,
		// the queue's wantSnap flag persists and the next dispatch retries.
		h.dispatchReplies(snap.Replies)
	}
}

// silenced reports whether the degrade policy demands the hub stop
// acknowledging: the journal latched an I/O error and the policy is
// DegradeBlock (DegradeShed keeps serving and only counts the loss).
// Logs once on the transition.
func (h *Hub) silenced() bool {
	d := h.journal
	if d == nil || d.Degrade() != durable.DegradeBlock || d.Err() == nil {
		return false
	}
	if !h.stalled {
		h.stalled = true
		h.logf("transport: journal failed (%v); withholding acknowledgements", d.Err())
	}
	return true
}

// dispatchReplies encodes every reply once into a pooled frame and
// enqueues it on the recipient's delivery queue, returning the clients
// whose queues requested a snapshot catch-up. Sibling push batches share
// their envelope section through the per-call EncodeCache, so a fan-out
// of n recipients serializes the (large) envelope bytes exactly once
// plus n small headers. Each frame carries one reference, consumed by
// the queue. No lock is held: encoding and enqueueing a fan-out to
// thousands of clients blocks no handshake, metrics reader or resume.
func (h *Hub) dispatchReplies(reps []core.Reply) []action.ClientID {
	var cache wire.EncodeCache
	defer cache.Reset()
	var needSnap []action.ClientID
	for i := range reps {
		rep := &reps[i]
		q := h.writers[rep.To]
		if q == nil {
			continue
		}
		h.enqueued++
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
			h.logf("transport: client %d write queue full; dropping message", rep.To)
		}
		if _, isQuar := rep.Msg.(*wire.Quarantine); isQuar {
			// Integrity verdict: the client hears why, then the writer
			// pump hangs up. The reader's leave event unregisters the
			// engine-side client; the quarantined ledger itself survives
			// both the unregister and any later resume attempt.
			q.PoisonAfterDrain()
			h.logf("transport: client %d quarantined; disconnecting", rep.To)
		}
	}
	return needSnap
}
