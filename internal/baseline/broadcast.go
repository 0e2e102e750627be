package baseline

import (
	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
)

// BroadcastServer is the NPSNET/SIMNET stand-in: it timestamps each
// action and immediately relays it to every client, origin included (the
// origin's copy is its commit signal). O(N) messages per action — O(N²)
// per simulation step with N submitting clients — and every client
// evaluates every action, which is why the broadcast model's per-client
// compute "is comparable to the central server" (Section V-B1).
//
// Clients of the broadcast model are core.Client engines in ModeBasic:
// they evaluate everything in the server-assigned total order, exactly
// like the paper's first action-based protocol, just with eager delivery
// instead of delivery-on-submission.
type BroadcastServer struct {
	nextSeq       uint64
	clients       []action.ClientID
	log           []action.Envelope
	recordHistory bool
}

// NewBroadcastServer returns an empty broadcast relay.
func NewBroadcastServer(recordHistory bool) *BroadcastServer {
	return &BroadcastServer{recordHistory: recordHistory}
}

// RegisterClient announces a client.
func (s *BroadcastServer) RegisterClient(id action.ClientID) {
	s.clients = append(s.clients, id)
}

// History returns the stamped envelopes in order, when recording.
func (s *BroadcastServer) History() []action.Envelope { return s.log }

// HandleSubmit stamps the action and relays it to every client.
func (s *BroadcastServer) HandleSubmit(from action.ClientID, m *wire.Submit) Output {
	var out Output
	env := m.Env
	env.Origin = from
	s.nextSeq++
	env.Seq = s.nextSeq
	if s.recordHistory {
		s.log = append(s.log, env)
	}
	for _, cid := range s.clients {
		out.Replies = append(out.Replies, core.Reply{
			To:  cid,
			Msg: &wire.Batch{Envs: []action.Envelope{env}},
		})
	}
	return out
}

// NewBroadcastClientConfig returns the core.Client configuration used by
// broadcast-model clients: the basic protocol without strictness (the
// broadcast total order makes every replica serial, so strict mode adds
// only overhead).
func NewBroadcastClientConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeBasic
	return cfg
}
