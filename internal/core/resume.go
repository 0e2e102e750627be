package core

import (
	"slices"

	"seve/internal/action"
	"seve/internal/integrity"
	"seve/internal/wire"
	"seve/internal/world"
)

// Session resume: the reconnect/catch-up layer over the Incomplete
// World Model. The primitive the paper already provides — the blind
// write W(S, ζS(S)) that seeds a client's missing read set (Algorithm
// 6, correct by Theorem 1) — generalizes directly to crash recovery:
// a reconnecting client either replays the exact suffix of batches it
// missed (the server retains a bounded per-client window), or, when
// the gap exceeds the window or the server restarted from its journal
// since, receives W(S, ζS(S)) over the entire state at the server's
// install point and rebuilds ζCS/ζCO from it.
// Either way Theorem 1's guarantee is restored: every value the
// client's stable store holds at version v is the serial-replay value
// as of v.

// dropRingCap bounds the per-session list of dropped action ids a
// CatchUp replays. Drops accumulate only between reconnects of a
// client that keeps submitting invalid actions; overflow forgets the
// oldest notice (the client would keep one stale queue entry — it
// also gets a violation from the unknown-commit path, so the loss is
// observable).
const dropRingCap = 4096

// session is what the server retains about a client across
// disconnects when Config.ResumeWindow > 0.
type session struct {
	token uint64
	mask  uint64
	// seqNo is the mint order the token was derived from, journaled so
	// a restarted server resumes the token counter past it.
	seqNo uint64
	// recovered marks a session rebuilt from the durable journal whose
	// client has not yet shown it holds this boot. The journal holds no
	// replies, so nothing says what a presented LastBatchSeq covers:
	// until the client presents one above fenceSeq, every resume is a
	// snapshot, never a rejection or a suffix replay.
	recovered bool
	// fenceSeq bounds the ClientSeqs a recovered session's client can
	// hold from a previous boot: unbounded until its first resume
	// against this boot, then the LastBatchSeq that resume presented.
	// This boot numbers the client's batches above it, so a later
	// LastBatchSeq above it proves the client applied a CatchUp or
	// batch of this boot.
	fenceSeq uint64
	// lastSeq is the ClientSeq of the newest batch ever sent (the high
	// end of the retained window); once a recovered session has
	// resumed, at least fenceSeq.
	lastSeq uint64
	// lastActSeq is the per-client action sequence number of the newest
	// submission accepted or dropped — the duplicate-submission
	// high-water mark.
	lastActSeq uint32
	// retained is the suffix window: up to Config.ResumeWindow committed
	// batches, contiguous, ending at lastSeq.
	retained []*wire.Batch
	// drops lists actions the Information Bound Model invalidated, kept
	// so a CatchUp can replay Drop notices lost with the connection.
	drops []action.ID
}

func (sess *session) recordDrop(id action.ID) {
	if len(sess.drops) >= dropRingCap {
		n := copy(sess.drops, sess.drops[1:])
		sess.drops = sess.drops[:n]
	}
	sess.drops = append(sess.drops, id)
}

// openSession creates or resets the client's session at registration.
// A re-registration through RegisterClient is a fresh join (a resumed
// client never re-registers — HandleResume revives its registration
// directly), so the window and high-water marks reset while the token
// stays stable per client id.
func (s *Server) openSession(rec *clientRec, mask uint64) {
	if s.cfg.ResumeWindow <= 0 {
		return
	}
	sess := rec.sess
	if sess == nil {
		// Tokens are the splitmix64 finalizer of a counter: deterministic
		// (the shard replay differential re-mints them identically) but
		// not trivially sequential on the wire.
		s.sessionSeq++
		sess = &session{token: integrity.Mix(s.sessionSeq), seqNo: s.sessionSeq}
		rec.sess = sess
		s.tokens[sess.token] = rec
	}
	sess.mask = mask
	sess.lastSeq = 0
	sess.lastActSeq = 0
	sess.retained = nil
	sess.drops = nil
	sess.recovered = false
	if s.journal != nil {
		// stampFloor scopes the recovered dedup floor to this
		// registration: everything stamped so far belongs to previous
		// generations of the client id.
		s.journal.SessionOpen(rec.id, sess.token, mask, sess.seqNo, s.nextSeq)
	}
}

// SessionToken returns the resume token for a registered client, or 0
// when sessions are disabled or the client is unknown.
func (s *Server) SessionToken(id action.ClientID) uint64 {
	if rec := s.recs[id]; rec != nil && rec.sess != nil {
		return rec.sess.token
	}
	return 0
}

// retainBatch records a freshly sequenced batch in the client's resume
// window, evicting the oldest once the window is full. No-op without a
// session.
func (s *shared) retainBatch(rec *clientRec, b *wire.Batch) {
	sess := rec.sess
	if sess == nil {
		return
	}
	sess.lastSeq = b.ClientSeq
	if len(sess.retained) >= s.cfg.ResumeWindow {
		n := copy(sess.retained, sess.retained[1:])
		sess.retained[n] = b
		return
	}
	sess.retained = append(sess.retained, b)
}

// retainedBatches gauges the total batches held across all sessions.
func (s *Server) retainedBatches() int {
	n := 0
	for _, rec := range s.recs {
		if rec.sess != nil {
			n += len(rec.sess.retained)
		}
	}
	return n
}

// HandleResume answers a reconnecting client (Resumer contract). The
// token resolves the session; the client's LastBatchSeq picks the
// resume strategy:
//
//   - Suffix replay: every batch in (LastBatchSeq, lastSeq] is still
//     retained, so the CatchUp verdict is followed by exactly those
//     batches and the client continues as if the connection had merely
//     stalled.
//   - Snapshot fallback: the window no longer reaches back far enough,
//     or the session was recovered from the journal and its client has
//     not yet shown it holds this boot (every resume against a
//     restarted server until the client presents a LastBatchSeq above
//     the one its first such resume presented). The client's sent()
//     bits are cleared (its stable store is about to be rebuilt, so
//     nothing it was ever sent can be assumed held),
//     the CatchUp carries W(S, ζS(S)) over the full state at the
//     install point, and one closure batch re-delivers the client's own
//     uncommitted actions with their Algorithm 6 dependencies.
//
// Rejections (unknown token, sessions disabled, a LastBatchSeq ahead of
// anything ever sent) return id 0 and a CatchUp{OK: false} addressed
// To: 0; the transport routes that to the connection the Resume
// arrived on and drops it.
func (s *Server) HandleResume(m *wire.Resume, nowMs float64) (action.ClientID, ServerOutput) {
	var out ServerOutput
	rec := s.tokens[m.Token]
	// A LastBatchSeq ahead of anything ever sent is a protocol violation
	// on a live session — but the expected shape of a resume against a
	// restarted server, which journals no replies. A client that may
	// still hold the previous boot takes the snapshot path instead of
	// rejecting.
	recovered := rec != nil && rec.sess.recovered && m.LastBatchSeq <= rec.sess.fenceSeq
	ahead := rec != nil && m.LastBatchSeq > rec.sess.lastSeq
	if rec == nil || (ahead && !recovered) {
		s.stats.ResumesRejected++
		out.Replies = append(out.Replies, newReply(0, &wire.CatchUp{}, nil))
		return 0, out
	}
	cid, sess := rec.id, rec.sess

	// A quarantined ledger outlives the session (and a crash-restart, via
	// the journal): the resume is refused with a fresh verdict so the
	// reconnecting client learns why, and the transport drops the
	// connection like any other rejection (DESIGN.md §16).
	if rec.led.Quarantined {
		s.stats.ResumesRejected++
		s.stats.QuarantineRejected++
		out.Replies = append(out.Replies, newReply(0, &wire.Quarantine{Reason: uint8(integrity.ViolationQuarantined)}, nil))
		return 0, out
	}

	if recovered {
		// The journal does not hold lastSeq: this boot numbers the
		// client's batches from its own high-water mark, so ClientSeq
		// stays monotonic for the client across the restart. A retry
		// after a lost CatchUp presents the same mark and meets the same
		// fence.
		sess.fenceSeq = min(sess.fenceSeq, m.LastBatchSeq)
		sess.lastSeq = max(sess.lastSeq, m.LastBatchSeq)
	} else {
		sess.recovered = false
	}

	// Revive the client if the disconnect unregistered it. It keeps its
	// sent-bitmap slot, and nextBatchSeq continues the session's
	// numbering.
	if !rec.registered {
		s.enlist(rec, clientInfo{interest: sess.mask, nextBatchSeq: sess.lastSeq})
	}

	// The window covers the gap when there is no gap at all, or when the
	// oldest retained batch is at or before the first one missing. The
	// retained slice is contiguous and ends at lastSeq by construction.
	// A client that may hold the previous boot is never covered: the
	// server cannot tell what it holds above the recovered floor, and a
	// snapshot is the one resume that leaves nothing there.
	covered := !recovered && !ahead && (m.LastBatchSeq == sess.lastSeq ||
		(len(sess.retained) > 0 && sess.retained[0].ClientSeq <= m.LastBatchSeq+1))
	if covered {
		s.stats.ResumesSuffix++
		out.Replies = append(out.Replies, newReply(cid, &wire.CatchUp{
			OK:            true,
			Boot:          s.boot,
			BootFloor:     s.bootFloor,
			InstalledUpTo: s.installed,
			LastActSeq:    sess.lastActSeq,
			DroppedActs:   slices.Clone(sess.drops),
		}, nil))
		for _, b := range sess.retained {
			if b.ClientSeq > m.LastBatchSeq {
				out.Replies = append(out.Replies, newReply(cid, b, nil))
			}
		}
		return cid, out
	}

	// Snapshot fallback. The client rebuilds from ζS at the install
	// point, so every sent() bit it holds is void.
	s.stats.ResumesSnapshot++
	if recovered {
		s.stats.ResumesRecovered++
	}
	s.snapshotOut(rec, &out)
	return cid, out
}

// snapshotOut appends the blind-write catch-up for rec to out: the
// CatchUp verdict carrying W(S, ζS(S)) at the install point, followed —
// when the client still has uncommitted actions queued — by one closure
// batch re-delivering them with their Algorithm 6 dependencies. Shared
// by the resume snapshot fallback and the transport's mid-session
// SnapshotCatchUp; either way Theorem 1 covers the rebuild.
func (s *Server) snapshotOut(rec *clientRec, out *ServerOutput) {
	var seeds []int
	for i, e := range s.queue {
		e.sent.clear(rec.slot)
		if e.env.Origin == rec.id {
			seeds = append(seeds, i)
		}
	}
	// The CatchUp blind-write payload: every object's authoritative
	// value at the install point.
	writes := s.zs.Writes()
	fp := make([]world.ObjectID, len(writes))
	for i, w := range writes {
		fp[i] = w.ID
	}
	out.Replies = append(out.Replies, newReply(rec.id, &wire.CatchUp{
		OK:            true,
		Boot:          s.boot,
		BootFloor:     s.bootFloor,
		Snapshot:      true,
		InstalledUpTo: s.installed,
		NextBatchSeq:  rec.nextBatchSeq + 1,
		LastActSeq:    rec.sess.lastActSeq,
		DroppedActs:   slices.Clone(rec.sess.drops),
		Writes:        writes,
	}, fp))

	// Re-deliver the client's own uncommitted actions as one closure
	// batch: Algorithm 6 with the still-queued submissions as seeds. The
	// batch takes NextBatchSeq (sequence() numbers and retains it), so
	// the client processes it first after the rebuild and its own
	// actions commit in submission order.
	if len(seeds) > 0 {
		v := s.segment.view()
		plan := s.planBatch(&v, seeds, s.scratchFor(0), sentTo(rec.slot))
		s.noteWalk(plan.stats, out)
		out.Replies = append(out.Replies, s.commitPlan(&v, rec, &plan, s.mintBlind(&plan), s.installed, false))
	}
}

// SnapshotCatchUp issues a mid-session blind-write catch-up for a
// connected client (Superseder contract): the same Algorithm 6
// primitive the resume path degrades to, invoked by the transport when
// a client's delivery queue overflows with frames that cannot be
// superseded safely. The replies replace everything queued for the
// client: the snapshot re-seeds its stable store at the install point,
// the seeds batch re-delivers its own uncommitted actions, sent() bits
// are cleared so future closures re-deliver what the discarded frames
// carried, and the CatchUp's DroppedActs replay covers discarded Drop
// notices. Returns an empty output when the client has no live session
// or registration (superseding requires Config.ResumeWindow > 0).
func (s *Server) SnapshotCatchUp(id action.ClientID, nowMs float64) ServerOutput {
	var out ServerOutput
	rec := s.recs[id]
	if rec == nil || !rec.registered || rec.sess == nil {
		return out
	}
	s.stats.SnapshotFallbacks++
	s.snapshotOut(rec, &out)
	return out
}
