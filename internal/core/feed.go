package core

import (
	"math"

	"seve/internal/action"
	"seve/internal/wire"
)

// The commit feed: the engine-side half of the durability pipeline
// (DESIGN.md §15). Instead of a per-install callback, the engine emits
// one grouped record per InstallContiguous pass — the seal-boundary
// granularity the six-pass pipeline already commits at — plus the
// session opens that let a restarted server rebuild its session table
// and serve Resume{token} against itself. Replies are not fed: a
// recovered session's first resume is a snapshot, which needs none.

// CommitRecord is one installed action as the journal sees it: the
// global serial position, the submitting client and its per-client
// action sequence number (the recovery-side source of the lastActSeq
// dedup floors), and the installed Result.
type CommitRecord struct {
	Seq    uint64
	Origin action.ClientID
	ActSeq uint32
	Res    action.Result
}

// Journal observes the engine's durable feed. Every call arrives on the
// engine's sequential entry points, never from a lane worker.
type Journal interface {
	// CommitGroup delivers one install pass: the contiguous records in
	// serial order, the epoch counter of the pass, and the blind-write
	// high-water mark after it (journaled so a restarted server never
	// re-mints a blind id a client may still hold).
	CommitGroup(epoch uint64, nextBlind uint32, recs []CommitRecord)
	// SessionOpen records a session mint or reset: the stable token, the
	// interest mask, the mint order (for restoring the token counter) and
	// stampFloor, the global stamp high-water at open time. Commits with
	// Seq <= stampFloor belong to a previous registration of the same
	// client id and must not contribute to its recovered dedup floor.
	SessionOpen(id action.ClientID, token, mask, seqNo, stampFloor uint64)
	// Deprecated: BatchRetained is never called; the engine journals no
	// replies. It stays only because the repository benchmark's journal
	// decorator still forwards it.
	BatchRetained(id action.ClientID, b *wire.Batch)
}

// QuarantineJournal is optionally implemented by journals that persist
// integrity quarantine verdicts (DESIGN.md §16). It is a separate
// interface so existing Journal implementations keep compiling; the
// engine type-asserts at verdict time. Called on the engine's
// sequential entry points.
type QuarantineJournal interface {
	// ClientQuarantined records a verdict: the client, the
	// integrity.Violation reason code, and the serial position of the
	// offending completion (zero when not position-tied).
	ClientQuarantined(id action.ClientID, reason uint8, seq uint64)
}

// QuarantineRecord is one recovered quarantine verdict.
type QuarantineRecord struct {
	ID     action.ClientID
	Reason uint8
	Seq    uint64
}

// SessionRecord is one recovered session: everything Restore needs to
// let the client behind Token resume against the restarted server.
type SessionRecord struct {
	ID    action.ClientID
	Token uint64
	Mask  uint64
	// SeqNo is the mint order (the sessionSeq value the token was derived
	// from); the restored token counter resumes past the maximum.
	SeqNo uint64
	// LastActSeq is the recovered dedup floor: the highest per-client
	// action sequence number committed at or below the recovered install
	// point within the session's current registration.
	LastActSeq uint32
}

// RestoreState rewinds a freshly constructed engine to the recovered
// durable point: the install/stamp watermark, the blind-write and
// session-token counters, the boot generation, and the session table.
type RestoreState struct {
	// UpTo is the recovered install point; both installed and nextSeq
	// resume there (serial positions above it were lost with the crash
	// and are re-issued — safe because every recovered session's first
	// resume is a snapshot, which discards state referencing them).
	UpTo uint64
	// NextBlind is the recovered blind-write high-water mark.
	NextBlind uint32
	// Boot is the recovery generation, incremented per Open of the
	// durable store. CatchUp verdicts carry it so clients can fence
	// retained completions minted against a previous boot (re-sending
	// them could poison re-issued serial positions).
	Boot uint64
	// SessionSeq is the recovered token-mint counter.
	SessionSeq uint64
	Sessions   []SessionRecord
	// Quarantined is the recovered quarantine set: verdicts journaled
	// before the crash stay latched, so a cheater cannot launder its
	// ledger through a server restart.
	Quarantined []QuarantineRecord
}

// Restore rewinds the engine to the recovered durable point. The
// engine must be freshly constructed (no clients, empty queue) over
// the recovered ζS.
func (s *Server) Restore(rec RestoreState) {
	if len(s.live) != 0 || len(s.queue) != 0 || s.installed != 0 {
		panic("core: Restore on a used engine")
	}
	s.installed = rec.UpTo
	s.nextSeq = rec.UpTo
	s.nextBlind = rec.NextBlind
	s.boot = rec.Boot
	s.bootFloor = rec.UpTo
	s.sessionSeq = rec.SessionSeq
	for _, sr := range rec.Sessions {
		r := s.recordOf(sr.ID)
		r.sess = &session{
			token:      sr.Token,
			mask:       sr.Mask,
			seqNo:      sr.SeqNo,
			lastActSeq: sr.LastActSeq,
			recovered:  true,
			fenceSeq:   math.MaxUint64,
		}
		s.tokens[sr.Token] = r
	}
	for _, qr := range rec.Quarantined {
		s.recordOf(qr.ID).led.Quarantined = true
	}
}

// Boot reports the engine's recovery generation.
func (s *Server) Boot() uint64 { return s.boot }

// emitCommitGroup feeds one install pass to the journal: the records
// are assembled into a reusable scratch slice on the engine thread and
// handed over as one group, preserving the seal pass's merge order.
func (s *Server) emitCommitGroup(batch []*entry) {
	recs := s.feedRecs[:0]
	for _, e := range batch {
		recs = append(recs, CommitRecord{
			Seq:    e.env.Seq,
			Origin: e.env.Origin,
			ActSeq: e.env.Act.ID().Seq,
			Res:    e.res,
		})
	}
	s.installEpoch++
	s.journal.CommitGroup(s.installEpoch, s.nextBlind, recs)
	for i := range recs {
		recs[i] = CommitRecord{}
	}
	s.feedRecs = recs[:0]
}
