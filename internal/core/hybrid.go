package core

import (
	"math"
	"sort"

	"seve/internal/action"
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
// The shared batch is a superset of each member's individual needs;
// supersets are harmless (batches are idempotent and multiversioned).
// Reliability of the relay hop is assumed, as in the simulator and the
// paper's sketch; production hardening (acks, re-push on relay failure)
// is intentionally out of scope.

// hybridTick runs one push cycle with relay delegation over the tick's
// window (pushWindow).
func (s *Server) hybridTick(window []int, nowMs float64, out *ServerOutput) {
	if len(window) == 0 {
		return
	}
	// Cell size: the reach of Equation (1) — two max-speed cones plus
	// both influence radii.
	cell := 2*s.cfg.MaxSpeed*(1+s.cfg.Omega)*s.cfg.RTTMs + 2*s.cfg.DefaultRadius
	if cell <= 0 {
		cell = 1
	}

	// s.live is in ascending id order, so every group's members and the
	// unplaced list come out sorted.
	groups := make(map[[2]int32][]*clientRec)
	var unplaced []*clientRec
	for _, rec := range s.live {
		if !rec.hasPos {
			unplaced = append(unplaced, rec)
			continue
		}
		key := [2]int32{int32(math.Floor(rec.pos.X / cell)), int32(math.Floor(rec.pos.Y / cell))}
		groups[key] = append(groups[key], rec)
	}

	// Deterministic iteration: sort group keys.
	keys := make([][2]int32, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	for _, k := range keys {
		s.pushGroup(groups[k], window, nowMs, out)
	}
	// Clients with unknown positions are served individually (they are
	// conservatively interested in everything, and grouping strangers
	// under one relay would couple unrelated players).
	for _, rec := range unplaced {
		s.pushGroup([]*clientRec{rec}, window, nowMs, out)
	}
}

// pushGroup computes the shared seed set and closure for one cell and
// emits either a direct Batch (single member) or a Relay.
func (s *Server) pushGroup(members []*clientRec, window []int, nowMs float64, out *ServerOutput) {
	var seeds []int
	for _, i := range window {
		e := s.queue[i]
		wanted := false
		for _, rec := range members {
			if e.sent.has(rec.slot) {
				continue
			}
			if s.pushEligible(e, &rec.clientInfo, nowMs) {
				wanted = true
				break
			}
		}
		if wanted {
			seeds = append(seeds, i)
		}
	}
	if len(seeds) == 0 {
		return
	}
	envs := s.closureShared(members, seeds, out)
	if len(members) == 1 {
		out.Replies = append(out.Replies, s.batchReply(members[0], envs, true, nil))
		return
	}
	inner := &wire.Batch{Envs: envs, Push: true, InstalledUpTo: s.installed}
	ids := make([]action.ClientID, len(members))
	seqs := make([]uint64, len(members))
	for i, rec := range members {
		ids[i] = rec.id
		rec.nextBatchSeq++
		seqs[i] = rec.nextBatchSeq
		// Retain the member's view of the shared batch — its own
		// ClientSeq over the shared envelope section — so a resume can
		// replay what the relay hop would have delivered.
		s.retainBatch(rec, &wire.Batch{
			Envs:          inner.Envs,
			Push:          true,
			InstalledUpTo: inner.InstalledUpTo,
			ClientSeq:     seqs[i],
		})
	}
	inner.ClientSeq = seqs[0] // the relay's own copy
	out.Replies = append(out.Replies, Reply{
		To:  ids[0],
		Msg: &wire.Relay{Targets: ids, TargetSeqs: seqs, Inner: inner},
		// A relay fans out to peers the queue cannot see past the first
		// hop; it must arrive exactly once, in order.
		Deliver: Delivery{Class: DeliveryOrdered},
	})
}

// closureShared is Algorithm 6 generalized to a set of recipients: an
// already-sent writer's effects are subtracted only if EVERY member has
// them; otherwise the action is included for all (duplicates are
// idempotent under the multiversion stores).
func (s *Server) closureShared(members []*clientRec, seeds []int, out *ServerOutput) []action.Envelope {
	v := s.segment.view()
	positions, writes, st := s.closureWalk(&v, seeds, s.scratchFor(0), func(_ int, e *entry) bool {
		for _, rec := range members {
			if !e.sent.has(rec.slot) {
				return false
			}
		}
		return true
	})
	s.noteWalk(st, out)
	for _, j := range positions {
		for _, rec := range members {
			s.queue[j].sent.set(rec.slot)
		}
	}
	// No footprint: a relayed batch is delivered in order, never superseded.
	plan := ReplyPlan{positions: positions, writes: writes, envs: planEnvs(&v, positions)}
	return s.blindFirst(&plan, s.mintBlind(&plan))
}
