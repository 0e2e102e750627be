package baseline

import (
	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

// RingServer is the RING-like architecture of Section V-B3: the server
// tracks each entity's position and forwards an action only to clients
// whose avatar is within the actor's visibility range. The origin always
// receives its own action back (the commit signal).
//
// This is the state of the art the paper criticizes in Section III-B:
// filtering by visibility is cheap — no closure computation — but
// actions outside an avatar's sight that causally affect it are silently
// lost, so client states diverge (Figures 2 and 3). Divergence measures
// exactly that.
type RingServer struct {
	nextSeq    uint64
	visibility float64
	clients    map[action.ClientID]*centralClientInfo
	order      []action.ClientID

	log           []action.Envelope
	recordHistory bool
	suppressed    int
}

// NewRingServer returns a RING relay with the given visibility range.
func NewRingServer(visibility float64, recordHistory bool) *RingServer {
	return &RingServer{
		visibility:    visibility,
		clients:       make(map[action.ClientID]*centralClientInfo),
		recordHistory: recordHistory,
	}
}

// RegisterClient announces a client.
func (s *RingServer) RegisterClient(id action.ClientID) {
	s.clients[id] = &centralClientInfo{}
	s.order = append(s.order, id)
}

// History returns the stamped envelopes in order, when recording.
func (s *RingServer) History() []action.Envelope { return s.log }

// Suppressed reports deliveries skipped by the visibility filter — what
// makes RING cheap, and inconsistent.
func (s *RingServer) Suppressed() int { return s.suppressed }

// HandleSubmit stamps the action and forwards it to the origin plus every
// client that can see the actor.
func (s *RingServer) HandleSubmit(from action.ClientID, m *wire.Submit) Output {
	var out Output
	env := m.Env
	env.Origin = from
	s.nextSeq++
	env.Seq = s.nextSeq
	if s.recordHistory {
		s.log = append(s.log, env)
	}

	var pos geom.Vec
	var hasPos bool
	if sp, ok := env.Act.(action.Spatial); ok {
		pos, hasPos = sp.Influence().Center, true
		if ci := s.clients[from]; ci != nil {
			ci.pos, ci.hasPos = pos, true
		}
	}

	for _, cid := range s.order {
		ci := s.clients[cid]
		visible := cid == from ||
			!hasPos || !ci.hasPos ||
			ci.pos.Dist(pos) <= s.visibility
		if !visible {
			s.suppressed++
			continue
		}
		out.Replies = append(out.Replies, core.Reply{
			To:  cid,
			Msg: &wire.Batch{Envs: []action.Envelope{env}},
		})
	}
	return out
}

// NewRingClientConfig returns the core.Client configuration for RING
// clients: the basic protocol, non-strict — RING clients legitimately
// evaluate actions against incomplete state; that incompleteness is the
// architecture's documented flaw, not a harness bug.
func NewRingClientConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeBasic
	return cfg
}

// Divergence compares a client's stable view against the serial oracle
// state over the objects the client holds, returning how many of them
// differ. This quantifies the inconsistency the visibility filter causes
// (cf. Figure 3's dead-archer anomaly): SEVE and Broadcast score zero;
// RING does not.
func Divergence(clientView world.Reader, held world.IDSet, oracle *world.State) (diverged int) {
	for _, id := range held {
		cv, okC := clientView.Get(id)
		ov, okO := oracle.Get(id)
		if okC != okO || (okC && !cv.Equal(ov)) {
			diverged++
		}
	}
	return diverged
}
