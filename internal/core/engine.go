package core

import (
	"seve/internal/action"
	"seve/internal/metrics"
	"seve/internal/wire"
	"seve/internal/world"
)

// Engine is the server-side protocol engine contract: everything a
// transport adapter (the TCP loop in package transport, the simulator in
// package experiments, the test loopbacks) needs to drive a serializer.
// *Server is the canonical single-lane implementation; shard.Router
// implements the same contract over N spatially partitioned lanes with a
// deterministic cross-shard merge.
//
// Engines are sequential state machines: callers must serialize all
// calls (one engine goroutine, or an external mutex). Any internal
// parallelism — the First Bound push pool, the shard lane workers — is
// the engine's own business and never escapes a call.
type Engine interface {
	// RegisterClient announces a client; interestMask selects interest
	// classes for Section IV-A filtering (0 subscribes to all).
	RegisterClient(id action.ClientID, interestMask uint64)
	// UnregisterClient removes a client (failure or disconnect).
	UnregisterClient(id action.ClientID)
	// HandleMsg dispatches one client message and returns the replies it
	// produced. Engines that batch internally (the shard router) may
	// return the replies from a later call instead; transports must
	// dispatch every output they are handed, whenever they are handed it.
	HandleMsg(from action.ClientID, msg wire.Msg, nowMs float64) ServerOutput
	// Tick runs the First Bound push cycle (a no-op below ModeFirstBound).
	Tick(nowMs float64) ServerOutput
	// Installed returns the serial position up to which ζS is complete.
	Installed() uint64
	// Authoritative returns ζS.
	Authoritative() *world.State
	// History returns the stamped envelopes in serial order (requires
	// ModeBasic or Config.RecordHistory).
	History() []action.Envelope
	// QueueLen reports the number of uncommitted actions.
	QueueLen() int
	// Metrics snapshots the engine's cumulative counters.
	Metrics() metrics.ServerStats
	// SetJournal registers the durable commit feed (feed.go): grouped
	// install records at seal boundaries plus the session-layer records
	// the resume rebuild needs. Pass nil to remove.
	SetJournal(j Journal)
	// Restore rewinds the engine to a durable recovery (feed.go). It must
	// be called once, before any client traffic, on an engine
	// constructed over the recovered state.
	Restore(rec RestoreState)
	// Boot reports the engine's recovery generation (zero when the
	// engine never restored).
	Boot() uint64
}

// Resumer is implemented by engines that retain client sessions
// (Config.ResumeWindow > 0) and can answer a reconnect.
type Resumer interface {
	// HandleResume answers a wire.Resume. On success it returns the
	// session's client id; the output carries the CatchUp verdict plus
	// either the retained batch suffix or the snapshot follow-up,
	// addressed to that id. On rejection the id is zero and exactly one
	// Reply is addressed To: 0 — CatchUp{OK: false} for an unknown or
	// stale token, Quarantine for a quarantined ledger — which the
	// transport writes to the connection the Resume arrived on; any other
	// replies (a sharded engine flushes its open epoch first) go to their
	// recipients as usual.
	HandleResume(m *wire.Resume, nowMs float64) (action.ClientID, ServerOutput)
	// SessionToken returns the resume token for a registered client, or 0
	// when sessions are disabled or the client is unknown.
	SessionToken(id action.ClientID) uint64
}

// Superseder is implemented by engines that can rebuild a connected
// client mid-session: SnapshotCatchUp issues the blind-write catch-up
// (Algorithm 6 / Theorem 1, the same primitive the resume path uses)
// whose replies replace everything queued, undelivered, for that
// client. The transport's superseding delivery queue (DESIGN.md §13)
// calls it when a slow client's queue overflows with frames that
// cannot be superseded in place. Requires Config.ResumeWindow > 0;
// without a live session the output is empty and the transport must
// fall back to dropping.
type Superseder interface {
	SnapshotCatchUp(id action.ClientID, nowMs float64) ServerOutput
}

// Flusher is implemented by engines that buffer submissions internally
// (the shard router's epoch batching). Transports should call Flush
// whenever their event queue drains so buffered replies are not held
// hostage to the next message or tick, and must dispatch the output.
type Flusher interface {
	Flush() ServerOutput
}

// Engine conformance is part of the package contract.
var (
	_ Engine     = (*Server)(nil)
	_ Resumer    = (*Server)(nil)
	_ Superseder = (*Server)(nil)
)
