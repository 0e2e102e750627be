package durable

import (
	"fmt"
	"slices"

	"seve/internal/action"
	"seve/internal/world"
)

// shadow is the store's private replica of everything the engine needs
// back after a crash: the authoritative state at the durable install
// point, the watermark counters, and the session table with its dedup
// floors. A checkpoint image is the shadow baked at one point (image),
// and a segment is what happened to it since; one function applies a
// segment record to it (apply), run live by the committer as each record
// lands and at Open by recovery over the files. So what the committer
// believes durable is exactly what a restart reconstructs, and
// checkpoints are cut from the shadow without ever stalling the engine
// behind a state flatten.
type shadow struct {
	state      *world.State
	applied    uint64 // durable install point (contiguous from 1)
	nextBlind  uint32
	sessionSeq uint64
	boot       uint64
	sessions   map[action.ClientID]*shadowSession
	// quarantined latches integrity verdicts (DESIGN.md §16), first
	// verdict per client wins.
	quarantined map[action.ClientID]walQuarantine
	// gapped is set by the first commit record that does not continue
	// the shadow — a shed pass. Commits freeze there, so no image can
	// claim coverage past the hole; sessions and verdicts still apply.
	gapped bool

	// group and arena are apply's decode scratch, reused from record to
	// record: the shadow copies what it installs.
	group []walEntry
	arena writeArena
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

// apply decodes one segment record and applies it. It reports whether
// the record was an install pass the shadow took; an error means the
// record does not decode.
func (sh *shadow) apply(body []byte) (installed bool, err error) {
	switch body[0] {
	case recCommit:
		return sh.commit(body)
	case recSession:
		rec, _, err := decodeSessionFields(body, 1)
		if err != nil {
			return false, err
		}
		sh.open(rec)
	case recQuarantine:
		rec, err := decodeQuarantineRecord(body)
		if err != nil {
			return false, err
		}
		sh.quarantine(rec)
	default:
		return false, fmt.Errorf("durable: unknown record kind %d", body[0])
	}
	return false, nil
}

// commit applies one install pass, whose entries must continue the
// shadow exactly; a hole freezes the shadow's commits (gapped).
func (sh *shadow) commit(body []byte) (bool, error) {
	if sh.gapped {
		return false, nil
	}
	defer sh.arena.reset()
	nextBlind, group, err := decodeCommitRecord(body, &sh.arena, sh.group[:0])
	sh.group = group
	if err != nil {
		return false, err
	}
	for i, e := range group {
		if e.seq != sh.applied+1+uint64(i) {
			sh.gapped = true
			return false, nil
		}
	}
	for _, e := range group {
		sh.applyEntry(e)
	}
	sh.nextBlind = max(sh.nextBlind, nextBlind)
	return len(group) > 0, nil
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
	sh.sessions[rec.id] = &shadowSession{walSession: rec}
	sh.sessionSeq = max(sh.sessionSeq, rec.seqNo)
}

// quarantine latches one verdict; replays of the same client keep the
// first (the core ledger is idempotent the same way).
func (sh *shadow) quarantine(rec walQuarantine) {
	if _, dup := sh.quarantined[rec.id]; !dup {
		sh.quarantined[rec.id] = rec
	}
}

// image bakes the shadow into a checkpoint image: the recImage record,
// then every session with its current floor and every verdict, each in
// client id order. Every record but the first has a fixed size, so the
// image is sized before it is built.
func (sh *shadow) image() []byte {
	ids := sh.state.IDs()
	size := imageHdrLen + len(sh.sessions)*imageSessLen + len(sh.quarantined)*quarantineRecLen
	for _, id := range ids {
		v, _ := sh.state.Get(id)
		size += 10 + 8*len(v)
	}
	buf := make([]byte, 0, size)
	buf = appendImageRecord(buf, sh, ids)
	for _, id := range sortedIDs(sh.sessions) {
		buf = appendImageSess(buf, *sh.sessions[id])
	}
	for _, id := range sortedIDs(sh.quarantined) {
		buf = appendQuarantineRecord(buf, sh.quarantined[id])
	}
	return buf
}

func sortedIDs[V any](m map[action.ClientID]V) []action.ClientID {
	ids := make([]action.ClientID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// loadImage rebuilds a shadow from an image file. It fails unless the
// whole file reads and its first record is a recImage.
func loadImage(raw []byte) (*shadow, bool) {
	var sh *shadow
	whole := scanRecords(raw, func(body []byte) bool {
		if sh == nil {
			var err error
			sh, err = decodeImageRecord(body)
			return err == nil
		}
		switch body[0] {
		case recImageSess:
			sess, err := decodeImageSess(body)
			if err != nil {
				return false
			}
			sh.sessions[sess.id] = &sess
		case recQuarantine:
			q, err := decodeQuarantineRecord(body)
			if err != nil {
				return false
			}
			sh.quarantine(q)
		default:
			return false
		}
		return true
	})
	return sh, whole && sh != nil
}
