package core

import (
	"math"
	"slices"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/wire"
)

// Hybrid P2P/client-server push delegation — the Section VII direction
// ("extensions to a hybrid architecture that strikes a balance between
// P2P and client-server are an interesting direction for future work"),
// implemented for the First Bound push path.
//
// Instead of unicasting a push batch per client, the server groups
// clients into neighbourhood cells the size of the Equation (1)
// influence reach, computes ONE shared closure batch per cell, and sends
// it to a single relay client that forwards it peer-to-peer to the
// others. The server remains the sole serializer and the authority for
// ζS — the properties Section II-B argues MMO operators cannot give up —
// while its push egress drops by roughly the cell population.
//
// Hybrid is a recipient grouping, not a second push path: Tick plans one
// ReplyPlan per group over the same entry grid and worker pool, and only
// the commit differs (commitRelay). The shared batch is a superset of
// each member's individual needs; supersets are harmless (batches are
// idempotent and multiversioned). Reliability of the relay hop is
// assumed, as in the simulator and the paper's sketch; production
// hardening (acks, re-push on relay failure) is intentionally out of
// scope.

// unplacedKey sorts a client the relay cells cannot place after every
// cell; no geom.CellKey reaches it.
const unplacedKey = math.MaxUint64

// pushGroups returns Tick's recipient groups in commit order, built in
// scratch reused across ticks. Without HybridRelay every live client is a
// group of its own, in ascending id order. Under HybridRelay the clients
// of one relay cell — Config.NeighbourhoodCell, the shard lanes' default
// cell too — form a group: cells ascending by (x, y), members by id.
// Clients the cells cannot place (no position, or one geom.CellOf
// refuses: non-finite or off the cell keys) follow, each alone and in id
// order, so a hostile position never puts a client under a stranger's
// relay.
func (s *Server) pushGroups() [][]*clientRec {
	groups := s.groups[:0]
	if s.cfg.HybridRelay {
		groups = s.relayGroups(groups)
	} else {
		for i := range s.live {
			groups = append(groups, s.live[i:i+1:i+1])
		}
	}
	s.groups = groups
	return groups
}

// relayGroups appends the relay-cell groups to groups, sorting the
// clients by (cell key, id) in a reused slice — no map, so no iteration
// order reaches the commit order.
func (s *Server) relayGroups(groups [][]*clientRec) [][]*clientRec {
	cell := s.cfg.NeighbourhoodCell()
	keys := s.relayKeys[:0]
	for ord, rec := range s.live {
		key := uint64(unplacedKey)
		if cx, cy, ok := geom.CellOf(rec.pos, cell); rec.hasPos && ok {
			key = geom.CellKey(cx, cy)
		}
		keys = append(keys, gridSlot{key: key, ord: int32(ord)})
	}
	slices.SortFunc(keys, compareSlots)
	members := s.relayMembers[:0]
	for _, k := range keys {
		members = append(members, s.live[k.ord])
	}
	s.relayKeys, s.relayMembers = keys, members
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].key == keys[lo].key && keys[lo].key != unplacedKey {
			hi++
		}
		groups = append(groups, members[lo:hi:hi])
		lo = hi
	}
	return groups
}

// sentToAll is the closure walk's already() for a recipient group, the
// Algorithm 6 generalization to a set of recipients: an already-sent
// writer's effects are subtracted only if EVERY member has them;
// otherwise the action is included for all (duplicates are idempotent
// under the multiversion stores).
func sentToAll(members []*clientRec) func(int, *entry) bool {
	if len(members) == 1 {
		return sentTo(members[0].slot)
	}
	return func(_ int, e *entry) bool {
		for _, rec := range members {
			if !e.sent.has(rec.slot) {
				return false
			}
		}
		return true
	}
}

// commitRelay commits one cell's shared plan: the entries are marked
// sent to every member, and each member gets its own ClientSeq over the
// one envelope section, retained so a resume can replay what the relay
// hop would have delivered. The first member receives the Relay and
// forwards it.
func (s *Server) commitRelay(members []*clientRec, p *ReplyPlan) Reply {
	envs := blindFirst(p, s.mintBlind(p), s.installed)
	ids := make([]action.ClientID, len(members))
	seqs := make([]uint64, len(members))
	for i, rec := range members {
		for _, j := range p.positions {
			s.queue[j].sent.set(rec.slot)
		}
		ids[i] = rec.id
		rec.nextBatchSeq++
		seqs[i] = rec.nextBatchSeq
		s.retainBatch(rec, &wire.Batch{Envs: envs, Push: true, InstalledUpTo: s.installed, ClientSeq: seqs[i]})
	}
	inner := &wire.Batch{Envs: envs, Push: true, InstalledUpTo: s.installed, ClientSeq: seqs[0]}
	return newReply(ids[0], &wire.Relay{Targets: ids, TargetSeqs: seqs, Inner: inner}, nil)
}
