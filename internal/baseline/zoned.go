package baseline

import (
	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

// ZoneGrid implements the zoning architecture of Section II-A: "the
// technique of geographically partitioning ('tiling') the virtual
// environment into areas small enough for a single server to handle."
// One ZoneServer per tile executes the game logic for actions submitted
// by clients standing in its tile (Central-style within the zone) and
// broadcasts the effects to every client and to its peer servers, whose
// replicas it keeps eventually current.
//
// The paper's criticism that this architecture makes measurable: "zones
// collapse if too many users crowd into a zone all at once" — crowd
// every avatar into one tile and its server saturates exactly like the
// single Central server, no matter how many idle peers exist.
type ZoneGrid struct {
	servers []*ZoneServer
	perRow  int
	tileW   float64
	tileH   float64
}

// NewZoneGrid tiles a width×height world into perRow×perRow zones.
func NewZoneGrid(width, height float64, perRow int, init *world.State) *ZoneGrid {
	if perRow < 1 {
		perRow = 1
	}
	g := &ZoneGrid{
		perRow: perRow,
		tileW:  width / float64(perRow),
		tileH:  height / float64(perRow),
	}
	for z := 0; z < perRow*perRow; z++ {
		g.servers = append(g.servers, &ZoneServer{zone: z, st: init.Clone()})
	}
	return g
}

// Zones reports the number of zone servers.
func (g *ZoneGrid) Zones() int { return len(g.servers) }

// Server returns the z-th zone server.
func (g *ZoneGrid) Server(z int) *ZoneServer { return g.servers[z] }

// ZoneOf maps a position to its tile index.
func (g *ZoneGrid) ZoneOf(p geom.Vec) int {
	col := int(p.X / g.tileW)
	row := int(p.Y / g.tileH)
	if col < 0 {
		col = 0
	}
	if col >= g.perRow {
		col = g.perRow - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.perRow {
		row = g.perRow - 1
	}
	return row*g.perRow + col
}

// RegisterClient announces a client to every zone (any zone may need to
// send it updates after a handoff).
func (g *ZoneGrid) RegisterClient(id action.ClientID) {
	for _, s := range g.servers {
		s.clients = append(s.clients, id)
	}
}

// ZoneServer executes game logic for one tile.
type ZoneServer struct {
	zone    int
	st      *world.State
	nextSeq uint64
	clients []action.ClientID

	executed int
}

// Zone returns the tile index.
func (s *ZoneServer) Zone() int { return s.zone }

// Executed reports how many actions this zone server evaluated — the
// load-balance (or collapse) evidence.
func (s *ZoneServer) Executed() int { return s.executed }

// State returns the server's replica (authoritative for its own tile).
func (s *ZoneServer) State() *world.State { return s.st }

// ZoneOutput extends Output with peer-server updates, which travel over
// the (fast, intra-datacenter) server-to-server links.
type ZoneOutput struct {
	Output
	// PeerUpdates go to every other zone server.
	PeerUpdates []wire.Msg
	// Executed actions, for compute-cost accounting.
	Executed []action.Action
}

// HandleSubmit executes the action against the zone's replica: a
// Completion to the origin (its commit), a blind-write Batch to every
// client, and the same Batch to peers so their replicas follow.
func (s *ZoneServer) HandleSubmit(from action.ClientID, m *wire.Submit) ZoneOutput {
	var out ZoneOutput
	env := m.Env
	env.Origin = from
	s.nextSeq++
	env.Seq = s.nextSeq

	res := action.Eval(env.Act, world.StateView{S: s.st})
	for _, w := range res.Writes {
		s.st.Set(w.ID, w.Val)
	}
	s.executed++
	out.Executed = append(out.Executed, env.Act)

	out.Replies = append(out.Replies, core.Reply{
		To:  from,
		Msg: &wire.Completion{Seq: env.Seq, By: action.OriginServer, Res: res},
	})
	if len(res.Writes) > 0 {
		bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: uint32(env.Seq)}, res.Writes)
		batch := &wire.Batch{Envs: []action.Envelope{{
			Seq: env.Seq, Origin: action.OriginServer, Act: bw,
		}}}
		for _, cid := range s.clients {
			if cid != from {
				out.Replies = append(out.Replies, core.Reply{
					To: cid, Msg: batch,
				})
			}
		}
		out.PeerUpdates = append(out.PeerUpdates, batch)
	}
	return out
}

// HandlePeerUpdate installs a peer zone's effects into this replica.
func (s *ZoneServer) HandlePeerUpdate(m *wire.Batch) {
	for _, env := range m.Envs {
		if bw, ok := env.Act.(*action.BlindWrite); ok {
			for _, w := range bw.Writes() {
				s.st.Set(w.ID, w.Val)
			}
		}
	}
}
