package durable

import (
	"seve/internal/action"
	"seve/internal/world"
)

// shadow is the store's private replica of everything the engine needs
// back after a crash: the authoritative state at the durable install
// point, the watermark counters, and the session table with its dedup
// floors. It is maintained two ways by the same decode-and-apply code —
// live by the committer, which replays every record as it lands on disk,
// and at Open by recovery, which replays the files. That symmetry is the
// package's correctness anchor: what the committer believes durable is
// exactly what a restart reconstructs, so checkpoints can be cut from
// the shadow without ever stalling the engine behind a state flatten.
type shadow struct {
	state      *world.State
	applied    uint64 // durable install point (contiguous from 1)
	nextBlind  uint32
	sessionSeq uint64
	sessions   map[action.ClientID]*shadowSession
	// quarantined latches integrity verdicts (DESIGN.md §16), first
	// verdict per client wins. Independent of the session table: floors
	// may be dropped conservatively on a messy recovery, but a verdict
	// never is — keeping a cheater out is the safe direction.
	quarantined map[action.ClientID]walQuarantine
}

type shadowSession struct {
	walSession
	lastActSeq uint32
}

func newShadow() *shadow {
	return &shadow{
		state:       world.NewState(),
		sessions:    make(map[action.ClientID]*shadowSession),
		quarantined: make(map[action.ClientID]walQuarantine),
	}
}

// quarantine latches one verdict; replays of the same client keep the
// first (the core ledger is idempotent the same way).
func (sh *shadow) quarantine(rec walQuarantine) {
	if _, dup := sh.quarantined[rec.id]; !dup {
		sh.quarantined[rec.id] = rec
	}
}

// applyEntry installs one commit entry: the writes land in the shadow
// state, the install point advances, and — when the origin has a live
// session whose current registration covers the stamp — the per-client
// dedup floor rises. Entries at or below a session's stampFloor belong
// to a previous registration of the client id and must not contribute.
func (sh *shadow) applyEntry(e walEntry) {
	if e.ok {
		// The shadow owns its state outright and reads it only from the
		// goroutine that writes it, so values are overwritten in place.
		for _, w := range e.writes {
			sh.state.SetInPlace(w.ID, w.Val)
		}
	}
	sh.applied = e.seq
	if sess := sh.sessions[e.origin]; sess != nil && e.seq > sess.stampFloor && e.actSeq > sess.lastActSeq {
		sess.lastActSeq = e.actSeq
	}
}

// open applies a session mint or reset, mirroring core's openSession:
// an existing session for the id restarts its floor.
func (sh *shadow) open(rec walSession) {
	sess := sh.sessions[rec.id]
	if sess == nil {
		sess = &shadowSession{}
		sh.sessions[rec.id] = sess
	}
	*sess = shadowSession{walSession: rec}
	if rec.seqNo > sh.sessionSeq {
		sh.sessionSeq = rec.seqNo
	}
}

// bake applies a recMetaSess record (a checkpointed session), used by
// recovery before replaying the meta lineage's appended tail.
func (sh *shadow) bake(m walMetaSess) {
	sh.sessions[m.id] = &shadowSession{walSession: m.walSession, lastActSeq: m.lastActSeq}
	if m.seqNo > sh.sessionSeq {
		sh.sessionSeq = m.seqNo
	}
}
