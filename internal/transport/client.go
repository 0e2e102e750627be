package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/metrics"
	"seve/internal/wire"
	"seve/internal/world"
)

// ReconnectConfig tunes the client's resume-on-disconnect behavior.
// The zero value disables reconnection (Run returns the read error, the
// historical behavior).
type ReconnectConfig struct {
	// MaxAttempts bounds consecutive failed dials before Run gives up;
	// zero or negative disables reconnection entirely.
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each failed attempt
	// doubles it up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter adds up to this fraction of the current delay, randomized,
	// so a server restart does not see every client redial in lockstep.
	Jitter float64
	// Rand drives the jitter; nil seeds from the clock. Tests inject a
	// seeded source for determinism.
	Rand *rand.Rand
}

// Client is a SEVE client over TCP: a core.Client engine fed by a reader
// goroutine, with application submissions serialized against it. If the
// server granted a session token (ServerConfig.Core.ResumeWindow > 0)
// and Reconnect is configured before Run, a dropped connection is
// re-dialed with exponential backoff and the session resumed in place —
// the engine keeps its identity, queue, and stable store.
type Client struct {
	addr  string
	token uint64

	// Reconnect, if set before Run, enables resume-on-disconnect.
	Reconnect ReconnectConfig
	// OnCommit, if set before Run, receives every stable commit.
	OnCommit func(core.Commit)
	// OnDrop, if set before Run, receives Information Bound drops.
	OnDrop func(action.ID)

	mu                sync.Mutex
	conn              net.Conn
	engine            *core.Client
	closed            bool
	reconnectAttempts int
	// snapshotFallbacks counts CatchUp snapshots that arrived mid-session
	// on a live connection — the server's delivery queue overflowed and
	// superseded our backlog with a blind-write rebuild (DESIGN.md §13),
	// as opposed to the snapshots we asked for by resuming.
	snapshotFallbacks int
}

// Dial connects, performs the Hello/Welcome handshake, and returns a
// ready client whose engine is seeded with the server's initial world.
func Dial(addr string, cfg core.Config, interestMask uint64) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return join(conn, addr, cfg, interestMask)
}

// join runs the Hello/Welcome handshake on an open connection; addr is
// where a resume re-dials. It closes conn on failure.
func join(conn net.Conn, addr string, cfg core.Config, interestMask uint64) (*Client, error) {
	if err := wire.WriteFrame(conn, &wire.Hello{InterestMask: interestMask}); err != nil {
		conn.Close()
		return nil, err
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: welcome: %w", err)
	}
	welcome, ok := msg.(*wire.Welcome)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("transport: expected Welcome, got type %d", msg.Type())
	}
	init := world.NewState()
	for _, w := range welcome.Init {
		init.Set(w.ID, w.Val)
	}
	engine := core.NewClient(welcome.You, cfg, init)
	// Joining under the server's current boot generation arms the
	// CatchUp fence correctly: without this a fresh client of a
	// once-restarted server (boot > 0) would treat its first benign
	// resume as a restart and roll back healthy commits.
	engine.SetBoot(welcome.Boot)
	return &Client{
		addr:   addr,
		token:  welcome.Token,
		conn:   conn,
		engine: engine,
	}, nil
}

// ID returns the server-assigned client id.
func (c *Client) ID() action.ClientID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engine.ID()
}

// Token returns the server-granted session token (0 when the server has
// resume disabled).
func (c *Client) Token() uint64 { return c.token }

// NextActionID mints an action identity.
func (c *Client) NextActionID() action.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engine.NextActionID()
}

// OptimisticRead reads an object from the optimistic state ζCO.
func (c *Client) OptimisticRead(id world.ObjectID) (world.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.engine.Optimistic().Get(id)
	return v.Clone(), ok
}

// Engine runs f with the engine locked, for application reads that need
// a consistent multi-object view.
func (c *Client) Engine(f func(*core.Client)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(c.engine)
}

// Metrics snapshots the engine's counters plus the transport-level
// reconnect attempts.
func (c *Client) Metrics() metrics.ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.engine.Metrics()
	st.ReconnectAttempts = c.reconnectAttempts
	st.SnapshotFallbacks = c.snapshotFallbacks
	return st
}

// Submit optimistically applies a and ships it to the server, returning
// the optimistic result. A write failure during a disconnect window is
// not fatal: the action stays queued in the engine and is re-submitted
// by the resume handshake.
func (c *Client) Submit(a action.Action) (action.Result, error) {
	c.mu.Lock()
	msg, res := c.engine.Submit(a)
	res = res.Clone() // the engine's copy changes under Run once the lock is gone
	conn := c.conn
	c.mu.Unlock()
	if err := wire.WriteFrame(conn, msg); err != nil {
		return res, fmt.Errorf("transport: submit: %w", err)
	}
	return res, nil
}

// Run pumps server messages until the connection closes or Close is
// called, invoking OnCommit/OnDrop as resolutions arrive. On a read
// failure with Reconnect configured and a session token in hand, it
// re-dials and resumes instead of returning. It returns nil on orderly
// shutdown.
func (c *Client) Run() error {
	for {
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		msg, err := wire.ReadFrame(conn)
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			if rerr := c.resumeLoop(); rerr != nil {
				return fmt.Errorf("transport: read: %w (resume: %v)", err, rerr)
			}
			continue
		}
		c.mu.Lock()
		if cu, ok := msg.(*wire.CatchUp); ok && cu.OK && cu.Snapshot {
			c.snapshotFallbacks++
		}
		out := c.engine.HandleMsg(msg)
		conn = c.conn
		c.mu.Unlock()
		if err := c.deliver(conn, out); err != nil {
			return err
		}
		if q, ok := msg.(*wire.Quarantine); ok {
			// Integrity verdict (DESIGN.md §16): the session is over for
			// good — the server ignores this ledger's traffic and refuses
			// its resumes — so stop here instead of burning the reconnect
			// budget against guaranteed rejections.
			return quarantinedError{reason: q.Reason}
		}
	}
}

// deliver writes the engine output's server-bound messages and invokes
// the application callbacks.
func (c *Client) deliver(conn net.Conn, out core.ClientOutput) error {
	if len(out.ToServer) > 0 {
		// One batch can resolve many actions; coalesce the resulting
		// completion frames into a single pooled write.
		buf := wire.GetBuf(64)
		for _, m := range out.ToServer {
			buf = wire.AppendFrame(buf, m)
		}
		_, err := conn.Write(buf)
		wire.PutBuf(buf)
		if err != nil {
			// The reconnect path re-sends retained completions; let the
			// read loop notice the dead connection and resume.
			c.mu.Lock()
			closed := c.closed
			tok := c.token
			max := c.Reconnect.MaxAttempts
			c.mu.Unlock()
			if closed || tok == 0 || max <= 0 {
				return fmt.Errorf("transport: completion write: %w", err)
			}
		}
	}
	for _, cm := range out.Commits {
		if c.OnCommit != nil {
			c.OnCommit(cm)
		}
	}
	for _, id := range out.DroppedLocal {
		if c.OnDrop != nil {
			c.OnDrop(id)
		}
	}
	if len(out.Violations) > 0 {
		return fmt.Errorf("transport: protocol violation: %s", out.Violations[0])
	}
	return nil
}

// resumeLoop re-dials with exponential backoff and jitter, replays the
// Resume/CatchUp handshake, and swaps the healed connection in. A nil
// return means the read loop should continue on the new connection.
func (c *Client) resumeLoop() error {
	rc := c.Reconnect
	if rc.MaxAttempts <= 0 {
		return fmt.Errorf("reconnect disabled")
	}
	if c.token == 0 {
		return fmt.Errorf("server granted no session token")
	}
	base := rc.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := rc.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	rng := rc.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	delay := base
	var lastErr error
	for attempt := 0; attempt < rc.MaxAttempts; attempt++ {
		d := delay
		if rc.Jitter > 0 {
			d += time.Duration(rng.Float64() * rc.Jitter * float64(delay))
		}
		time.Sleep(d)
		if delay *= 2; delay > max {
			delay = max
		}
		c.mu.Lock()
		c.reconnectAttempts++
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil
		}
		if err := c.resumeOnce(); err != nil {
			lastErr = err
			if _, permanent := err.(resumeRejectedError); permanent {
				return err
			}
			if _, permanent := err.(quarantinedError); permanent {
				return err
			}
			continue
		}
		return nil
	}
	return fmt.Errorf("gave up after %d attempts: %w", rc.MaxAttempts, lastErr)
}

// resumeRejectedError marks a CatchUp{OK: false} verdict: the token is
// unknown or stale, so retrying is pointless.
type resumeRejectedError struct{}

func (resumeRejectedError) Error() string { return "resume rejected (token unknown or stale)" }

// quarantinedError marks a server integrity verdict (wire.Quarantine):
// the session is permanently over — the server silently ignores the
// ledger's traffic and refuses its resumes — so reconnecting is
// pointless.
type quarantinedError struct{ reason uint8 }

func (e quarantinedError) Error() string {
	return fmt.Sprintf("quarantined by server (integrity violation %d)", e.reason)
}

// resumeOnce performs one Resume/CatchUp handshake.
func (c *Client) resumeOnce() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	last := c.engine.LastAppliedBatch()
	c.mu.Unlock()
	if err := wire.WriteFrame(conn, &wire.Resume{Token: c.token, LastBatchSeq: last}); err != nil {
		conn.Close()
		return err
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return err
	}
	if q, ok := msg.(*wire.Quarantine); ok {
		conn.Close()
		return quarantinedError{reason: q.Reason}
	}
	cu, ok := msg.(*wire.CatchUp)
	if !ok {
		conn.Close()
		return fmt.Errorf("expected CatchUp, got type %d", msg.Type())
	}
	if !cu.OK {
		conn.Close()
		return resumeRejectedError{}
	}
	c.mu.Lock()
	if c.closed {
		// Close landed while we waited for the verdict and closed the
		// dead conn, not this one: drop it, and Run's next read of the
		// closed conn returns nil.
		c.mu.Unlock()
		conn.Close()
		return nil
	}
	out := c.engine.HandleCatchUp(cu)
	old := c.conn
	c.conn = conn
	c.mu.Unlock()
	if old != nil {
		old.Close()
	}
	// Re-submissions and retained completions ride the fresh connection;
	// a failure here surfaces on the next read and retriggers the loop.
	return c.deliver(conn, out)
}

// Close shuts the connection down; a concurrent Run returns nil.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}
