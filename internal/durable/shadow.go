package durable

import (
	"seve/internal/action"
	"seve/internal/world"
)

// shadow is the store's private replica of everything the engine needs
// back after a crash: the authoritative state at the durable install
// point, the watermark counters, and the session table with its dedup
// floors and retained-batch rings. It is maintained two ways by the
// same decode-and-apply code — live by the committer, which replays
// every record as it lands on disk, and at Open by recovery, which
// replays the files. That symmetry is the package's correctness
// anchor: what the committer believes durable is exactly what a
// restart reconstructs, so checkpoints can be cut from the shadow
// without ever stalling the engine behind a state flatten.
type shadow struct {
	state      *world.State
	applied    uint64 // durable install point (contiguous from 1)
	nextBlind  uint32
	sessionSeq uint64
	sessions   map[action.ClientID]*shadowSession
	window     int // retained-batch ring capacity per session
	// quarantined latches integrity verdicts (DESIGN.md §16), first
	// verdict per client wins. Independent of the session table: floors
	// may be dropped conservatively on a messy recovery, but a verdict
	// never is — keeping a cheater out is the safe direction.
	quarantined map[action.ClientID]walQuarantine
}

type shadowSession struct {
	walSession
	lastActSeq uint32
	lastSeq    uint64
	// ring holds the newest retained batches, ascending clientSeq,
	// payloads owned by the shadow.
	ring []ringEntry
}

// ringEntry is one retained batch: its ClientSeq and the wire.AppendMsg
// encoding of the wire.Batch.
type ringEntry struct {
	clientSeq uint64
	payload   []byte
}

func newShadow(window int) *shadow {
	return &shadow{
		state:       world.NewState(),
		sessions:    make(map[action.ClientID]*shadowSession),
		window:      window,
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
// an existing session for the id restarts its window and floors.
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

// retain applies a batch-retained record. The payload is copied when
// copyPayload is set (the live path hands in pooled buffers; recovery
// hands in file mappings it is about to discard either way).
func (sh *shadow) retain(rec walRetained, copyPayload bool) {
	sess := sh.sessions[rec.id]
	if sess == nil {
		return // session never journaled (opened before durability attached)
	}
	p := rec.payload
	if copyPayload {
		p = append(make([]byte, 0, len(p)), p...)
	}
	sess.ring = append(sess.ring, ringEntry{clientSeq: rec.clientSeq, payload: p})
	if rec.clientSeq > sess.lastSeq {
		sess.lastSeq = rec.clientSeq
	}
	if len(sess.ring) > sh.window {
		n := copy(sess.ring, sess.ring[1:])
		sess.ring[n] = ringEntry{}
		sess.ring = sess.ring[:n]
	}
}

// bake applies a recMetaSess record (a checkpointed session), used by
// recovery before replaying the meta lineage's appended tail.
func (sh *shadow) bake(m walMetaSess, copyPayload bool) {
	sess := &shadowSession{
		walSession: m.walSession,
		lastActSeq: m.lastActSeq,
		lastSeq:    m.lastSeq,
	}
	for _, r := range m.ring {
		p := r.payload
		if copyPayload {
			p = append(make([]byte, 0, len(p)), p...)
		}
		sess.ring = append(sess.ring, ringEntry{clientSeq: r.clientSeq, payload: p})
	}
	sh.sessions[m.id] = sess
	if m.seqNo > sh.sessionSeq {
		sh.sessionSeq = m.seqNo
	}
}
