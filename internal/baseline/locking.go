package baseline

import (
	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
	"seve/internal/world"
)

// LockServer implements the distributed-locking protocol family of
// Section II-B (Sun's Project Darkstar is the paper's example): "a
// client contacts the server for a lock … if it obtained all the
// necessary locks, the client executes the transaction on its local
// state and transmits the effect of the transaction to the server. The
// server then transmits this effect to all other clients."
//
// Locks are managed server-side (the paper's simpler variant). A
// submission write-locks every object in RS(a); conflicting submissions
// queue until release. The paper's criticism that this implementation
// makes measurable: "the minimum time required by a client to proceed to
// the next conflicting transaction is twice the round trip time" —
// request→grant is one RTT, effect→redistribution the second.
type LockServer struct {
	st      *world.State
	nextSeq uint64

	clients []action.ClientID

	// locked maps each object to the seq of the request holding it.
	locked map[world.ObjectID]uint64
	// waiting holds granted-pending requests in arrival order; a request
	// is granted when every object in its read set is free (all-or-
	// nothing acquisition, so no deadlock).
	waiting []*lockRequest
	// held maps seq → the locks a granted request holds.
	held map[uint64]world.IDSet

	granted, queued int
}

type lockRequest struct {
	seq  uint64
	from action.ClientID
	env  action.Envelope
}

// NewLockServer returns a lock server over the initial world.
func NewLockServer(init *world.State) *LockServer {
	return &LockServer{
		st:     init.Clone(),
		locked: make(map[world.ObjectID]uint64),
		held:   make(map[uint64]world.IDSet),
	}
}

// RegisterClient announces a client.
func (s *LockServer) RegisterClient(id action.ClientID) {
	s.clients = append(s.clients, id)
}

// State returns the authoritative state.
func (s *LockServer) State() *world.State { return s.st }

// Granted and Queued report how many requests were granted immediately
// versus made to wait — the contention the protocol serializes on.
func (s *LockServer) Granted() int { return s.granted }
func (s *LockServer) Queued() int  { return s.queued }

// HandleSubmit treats the submission as a lock request over RS(a).
func (s *LockServer) HandleSubmit(from action.ClientID, m *wire.Submit) Output {
	var out Output
	env := m.Env
	env.Origin = from
	s.nextSeq++
	env.Seq = s.nextSeq

	req := &lockRequest{seq: env.Seq, from: from, env: env}
	s.waiting = append(s.waiting, req)
	if !s.tryGrant(&out) {
		s.queued++
	}
	return out
}

// HandleEffect processes the executed transaction's effect: install into
// the authoritative state, broadcast to every other client, release the
// locks, and grant whoever was unblocked.
func (s *LockServer) HandleEffect(from action.ClientID, m *wire.Completion) Output {
	var out Output
	if m.Res.OK {
		for _, w := range m.Res.Writes {
			s.st.Set(w.ID, w.Val)
		}
	}
	// Redistribute the effect — including to the origin, whose receipt
	// is its commit confirmation (the second RTT).
	bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: uint32(m.Seq)}, m.Res.Writes)
	for _, cid := range s.clients {
		out.Replies = append(out.Replies, core.Reply{
			To: cid,
			Msg: &wire.Batch{Envs: []action.Envelope{{
				Seq: m.Seq, Origin: from, Act: bw,
			}}},
		})
	}
	// Release and re-grant.
	for _, id := range s.held[m.Seq] {
		delete(s.locked, id)
	}
	delete(s.held, m.Seq)
	for s.tryGrant(&out) {
	}
	return out
}

// tryGrant grants the earliest waiting request whose lock set is free.
// It reports whether any grant happened.
func (s *LockServer) tryGrant(out *Output) bool {
	for i, req := range s.waiting {
		rs := req.env.Act.ReadSet()
		free := true
		for _, id := range rs {
			if _, taken := s.locked[id]; taken {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for _, id := range rs {
			s.locked[id] = req.seq
		}
		s.held[req.seq] = rs
		s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
		s.granted++
		out.Replies = append(out.Replies, core.Reply{
			To:  req.from,
			Msg: &wire.LockGrant{Seq: req.seq, ActID: req.env.Act.ID()},
		})
		return true
	}
	return false
}

// LockClient is the client side of the lock-based protocol: it holds its
// actions until granted, executes them against its local replica, and
// ships the effects back.
type LockClient struct {
	id   action.ClientID
	view *world.State

	pending map[action.ID]action.Action
	// grantedSeq maps the serialized position back to the action id, so
	// the effect broadcast can be recognized as the commit confirmation.
	grantedSeq map[uint64]action.ID
	nextSeq    uint32
}

// NewLockClient returns a client over the initial world.
func NewLockClient(id action.ClientID, init *world.State) *LockClient {
	return &LockClient{
		id:         id,
		view:       init.Clone(),
		pending:    make(map[action.ID]action.Action),
		grantedSeq: make(map[uint64]action.ID),
	}
}

// ID returns the client id.
func (c *LockClient) ID() action.ClientID { return c.id }

// View returns the client's replica.
func (c *LockClient) View() *world.State { return c.view }

// NextActionID mints an action identity.
func (c *LockClient) NextActionID() action.ID {
	c.nextSeq++
	return action.ID{Client: c.id, Seq: c.nextSeq}
}

// Submit records the action as pending and returns the lock request.
// Nothing is executed yet — under locking there is no optimistic layer;
// that is exactly the latency the paper's protocol removes.
func (c *LockClient) Submit(a action.Action) *wire.Submit {
	c.pending[a.ID()] = a
	return &wire.Submit{Env: action.Envelope{Origin: c.id, Act: a}}
}

// LockOutput is what a lock client produced in response to a message.
type LockOutput struct {
	ToServer []wire.Msg
	// Executed is the action evaluated under this grant, for cost
	// accounting.
	Executed action.Action
	// Commits are resolved local actions (on receipt of their own
	// effect broadcast).
	Commits []core.Commit
}

// HandleMsg processes a grant or an effect broadcast.
func (c *LockClient) HandleMsg(msg wire.Msg) LockOutput {
	var out LockOutput
	switch m := msg.(type) {
	case *wire.LockGrant:
		a, ok := c.pending[m.ActID]
		if !ok {
			return out
		}
		delete(c.pending, m.ActID)
		c.grantedSeq[m.Seq] = m.ActID
		res := action.Eval(a, world.StateView{S: c.view})
		// Locks guarantee exclusive access, so the local execution is
		// authoritative; apply it and ship the effect.
		for _, w := range res.Writes {
			c.view.Set(w.ID, w.Val)
		}
		out.Executed = a
		out.ToServer = append(out.ToServer, &wire.Completion{Seq: m.Seq, By: c.id, Res: res})
	case *wire.Batch:
		for _, env := range m.Envs {
			bw, ok := env.Act.(*action.BlindWrite)
			if !ok {
				continue
			}
			if env.Origin != c.id {
				// Another client's effect: install it.
				for _, w := range bw.Writes() {
					c.view.Set(w.ID, w.Val)
				}
				continue
			}
			// Our own effect coming back: the commit confirmation
			// (already applied at grant time).
			if actID, ok := c.grantedSeq[env.Seq]; ok {
				delete(c.grantedSeq, env.Seq)
				out.Commits = append(out.Commits, core.Commit{
					ActID: actID,
					Seq:   env.Seq,
					Res:   action.Result{OK: true, Writes: bw.Writes()},
				})
			}
		}
	}
	return out
}
