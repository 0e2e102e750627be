// Package baseline implements the three architectures the paper
// evaluates SEVE against (Section V-B):
//
//   - Central — "an optimized version of a centralized system that
//     represents current online virtual worlds such as Second Life or
//     World of Warcraft": clients send inputs, the server executes all
//     game logic against the authoritative state and pushes resulting
//     object updates to interested clients.
//   - Broadcast — NPSNET/SIMNET: the server serializes and broadcasts
//     every action to every client; each client evaluates everything, so
//     per-client compute matches the central server's.
//   - RING — visibility-filtered forwarding: the server relays an action
//     only to clients whose avatar can see the actor. Fast, but
//     inconsistent (the Figure 3 arrow anomaly); package metrics
//     quantifies the divergence.
package baseline

import (
	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

// CentralServer executes every action itself. Its Output.Executed slice
// is what the simulation adapter charges compute for — 7.44 ms per move
// in the paper's calibration, which is what makes the server saturate at
// ~32 clients in Figure 6.
type CentralServer struct {
	st      *world.State
	nextSeq uint64

	// visibility controls which clients receive an action's effects:
	// those whose avatar is within this distance of the action. Zero
	// means every client receives every update.
	visibility float64

	clients map[action.ClientID]*centralClientInfo
	order   []action.ClientID

	log           []action.Envelope
	recordHistory bool
}

type centralClientInfo struct {
	pos    geom.Vec
	hasPos bool
}

// NewCentralServer returns a central server over the initial world.
func NewCentralServer(init *world.State, visibility float64, recordHistory bool) *CentralServer {
	return &CentralServer{
		st:            init.Clone(),
		visibility:    visibility,
		clients:       make(map[action.ClientID]*centralClientInfo),
		recordHistory: recordHistory,
	}
}

// RegisterClient announces a client.
func (s *CentralServer) RegisterClient(id action.ClientID) {
	s.clients[id] = &centralClientInfo{}
	s.order = append(s.order, id)
}

// Output of a central server step.
type Output struct {
	Replies []core.Reply
	// Executed lists actions the server evaluated itself (Central only);
	// the adapter charges their full compute cost to the server.
	Executed []action.Action
}

// State returns the authoritative world state.
func (s *CentralServer) State() *world.State { return s.st }

// History returns the executed envelopes in order, when recording.
func (s *CentralServer) History() []action.Envelope { return s.log }

// HandleSubmit executes the action server-side and distributes its
// effects: the origin gets a Completion carrying the result (its commit
// signal); clients within visibility get the written values as a blind
// write.
func (s *CentralServer) HandleSubmit(from action.ClientID, m *wire.Submit) Output {
	var out Output
	env := m.Env
	env.Origin = from
	s.nextSeq++
	env.Seq = s.nextSeq

	if sp, ok := env.Act.(action.Spatial); ok {
		if ci := s.clients[from]; ci != nil {
			ci.pos, ci.hasPos = sp.Influence().Center, true
		}
	}

	res := action.Eval(env.Act, world.StateView{S: s.st})
	for _, w := range res.Writes {
		s.st.Set(w.ID, w.Val)
	}
	out.Executed = append(out.Executed, env.Act)
	if s.recordHistory {
		s.log = append(s.log, env)
	}

	// Commit signal to the origin.
	out.Replies = append(out.Replies, core.Reply{
		To:  from,
		Msg: &wire.Completion{Seq: env.Seq, By: action.OriginServer, Res: res},
	})

	// Object updates to interested clients.
	if len(res.Writes) > 0 {
		var pos geom.Vec
		var hasPos bool
		if sp, ok := env.Act.(action.Spatial); ok {
			pos, hasPos = sp.Influence().Center, true
		}
		for _, cid := range s.order {
			ci := s.clients[cid]
			if cid == from {
				continue
			}
			if s.visibility > 0 && hasPos && ci.hasPos &&
				ci.pos.Dist(pos) > s.visibility {
				continue
			}
			bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: uint32(env.Seq)}, res.Writes)
			out.Replies = append(out.Replies, core.Reply{
				To: cid,
				Msg: &wire.Batch{Envs: []action.Envelope{{
					Seq: env.Seq, Origin: action.OriginServer, Act: bw,
				}}},
			})
		}
	}
	return out
}

// CentralClient is the thin client of the centralized model: it submits
// inputs and installs the value updates the server sends back. It does
// no game-logic computation.
type CentralClient struct {
	id      action.ClientID
	view    *world.State
	pending []action.Action
	nextSeq uint32
}

// NewCentralClient returns a client whose local view starts as init.
func NewCentralClient(id action.ClientID, init *world.State) *CentralClient {
	return &CentralClient{id: id, view: init.Clone()}
}

// ID returns the client's identity.
func (c *CentralClient) ID() action.ClientID { return c.id }

// View returns the client's local view of the world (authoritative
// values as they arrive; no optimistic layer — the centralized model
// waits for the server).
func (c *CentralClient) View() *world.State { return c.view }

// NextActionID mints the next action identity.
func (c *CentralClient) NextActionID() action.ID {
	c.nextSeq++
	return action.ID{Client: c.id, Seq: c.nextSeq}
}

// Submit queues a for the server.
func (c *CentralClient) Submit(a action.Action) *wire.Submit {
	c.pending = append(c.pending, a)
	return &wire.Submit{Env: action.Envelope{Origin: c.id, Act: a}}
}

// HandleMsg processes a server message, returning the commits resolved.
func (c *CentralClient) HandleMsg(msg wire.Msg) []core.Commit {
	switch m := msg.(type) {
	case *wire.Completion:
		if len(c.pending) == 0 {
			return nil
		}
		a := c.pending[0]
		c.pending = c.pending[1:]
		for _, w := range m.Res.Writes {
			c.view.Set(w.ID, w.Val)
		}
		return []core.Commit{{ActID: a.ID(), Seq: m.Seq, Res: m.Res}}
	case *wire.Batch:
		for _, env := range m.Envs {
			if bw, ok := env.Act.(*action.BlindWrite); ok {
				for _, w := range bw.Writes() {
					c.view.Set(w.ID, w.Val)
				}
			}
		}
	}
	return nil
}
