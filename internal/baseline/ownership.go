package baseline

import (
	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
	"seve/internal/world"
)

// Ownership implements the object-ownership protocol family of
// Section II-B (RING, Cyberwalk, WAVES): "each object is owned and
// managed by exactly one client … Other clients are allowed to cache a
// version of the object, but are not allowed to make modifications to
// its state."
//
// The owner commits writes to its own objects locally and instantly —
// unbeatable response time — and the server merely re-distributes the
// new values to cachers. The two costs the paper criticizes are both
// measurable here: actions touching non-owned objects are REJECTED
// ("it does not allow for any kind of object contention"), and reads of
// cached objects are stale, so replicas diverge exactly like RING's.

// OwnershipServer assigns ownership and relays owner updates.
type OwnershipServer struct {
	nextSeq uint64
	clients []action.ClientID
	// owner maps each object to its owning client.
	owner map[world.ObjectID]action.ClientID

	log           []action.Envelope
	recordHistory bool
	rejected      int
}

// NewOwnershipServer returns a relay with the given ownership map.
func NewOwnershipServer(owner map[world.ObjectID]action.ClientID, recordHistory bool) *OwnershipServer {
	o := make(map[world.ObjectID]action.ClientID, len(owner))
	for k, v := range owner {
		o[k] = v
	}
	return &OwnershipServer{owner: o, recordHistory: recordHistory}
}

// RegisterClient announces a client.
func (s *OwnershipServer) RegisterClient(id action.ClientID) {
	s.clients = append(s.clients, id)
}

// Rejected reports updates refused because the sender did not own every
// written object.
func (s *OwnershipServer) Rejected() int { return s.rejected }

// History returns the accepted envelopes in order, when recording.
func (s *OwnershipServer) History() []action.Envelope { return s.log }

// HandleUpdate validates ownership of the written objects and relays the
// effect to every cacher. The owner has already committed locally; a
// rejection is a fairness/abuse signal, not a rollback (the paper's
// "server is responsible for ensuring fairness in ownership").
func (s *OwnershipServer) HandleUpdate(from action.ClientID, m *wire.Submit) Output {
	var out Output
	env := m.Env
	env.Origin = from
	for _, id := range env.Act.WriteSet() {
		if s.owner[id] != from {
			s.rejected++
			return out
		}
	}
	s.nextSeq++
	env.Seq = s.nextSeq
	if s.recordHistory {
		s.log = append(s.log, env)
	}
	for _, cid := range s.clients {
		if cid == from {
			continue
		}
		out.Replies = append(out.Replies, core.Reply{
			To:  cid,
			Msg: &wire.Batch{Envs: []action.Envelope{env}},
		})
	}
	return out
}

// OwnershipClient executes actions over owned objects locally and caches
// everyone else's updates.
type OwnershipClient struct {
	id    action.ClientID
	view  *world.State
	owned world.IDSet

	nextSeq  uint32
	rejected int
}

// NewOwnershipClient returns a client owning the given objects.
func NewOwnershipClient(id action.ClientID, owned world.IDSet, init *world.State) *OwnershipClient {
	return &OwnershipClient{id: id, view: init.Clone(), owned: owned.Clone()}
}

// ID returns the client id.
func (c *OwnershipClient) ID() action.ClientID { return c.id }

// View returns the client's replica (own objects authoritative, others
// cached).
func (c *OwnershipClient) View() *world.State { return c.view }

// Rejected reports actions refused locally for writing non-owned
// objects.
func (c *OwnershipClient) Rejected() int { return c.rejected }

// NextActionID mints an action identity.
func (c *OwnershipClient) NextActionID() action.ID {
	c.nextSeq++
	return action.ID{Client: c.id, Seq: c.nextSeq}
}

// Execute runs the action if every written object is owned: the write
// commits locally and instantly, and an update for the server to relay
// is returned. If any written object is not owned the action is refused
// (nil update, ok=false) — the contention the paper shows this protocol
// family cannot express.
func (c *OwnershipClient) Execute(a action.Action) (update *wire.Submit, res action.Result, ok bool) {
	for _, id := range a.WriteSet() {
		if !c.owned.Contains(id) {
			c.rejected++
			return nil, action.Result{}, false
		}
	}
	res = action.Eval(a, world.StateView{S: c.view})
	for _, w := range res.Writes {
		c.view.Set(w.ID, w.Val)
	}
	return &wire.Submit{Env: action.Envelope{Origin: c.id, Act: a}}, res, true
}

// HandleMsg installs a relayed owner update into the cache.
func (c *OwnershipClient) HandleMsg(msg wire.Msg) []action.Action {
	m, ok := msg.(*wire.Batch)
	if !ok {
		return nil
	}
	var applied []action.Action
	for _, env := range m.Envs {
		// Re-execute the owner's action against the local cache: the
		// SIMNET/WAVES model where every workstation simulates every
		// received event. Writes land only on the owner's objects, so
		// ownership is preserved; reads of stale cache entries are the
		// protocol's documented inconsistency.
		res := action.Eval(env.Act, world.StateView{S: c.view})
		for _, w := range res.Writes {
			c.view.Set(w.ID, w.Val)
		}
		applied = append(applied, env.Act)
	}
	return applied
}
