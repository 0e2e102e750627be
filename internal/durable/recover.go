package durable

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Recovery = shadow replay over the files. The directory is scanned
// for the three artifact families a checkpoint publishes — snapshots,
// meta lineages, segments — and the shadow is rebuilt the same way the
// committer builds it live:
//
//  1. the newest intact snapshot seeds the state (older generations
//     are fallbacks kept by the gc policy; a corrupt newest snapshot
//     costs one checkpoint interval, not the world),
//  2. the newest parseable meta lineage seeds the watermarks and the
//     session table and the quarantine verdicts (baked records first,
//     then the appended tail, stopping at the first torn record),
//  3. every commit entry above the coverage point, merged across
//     segments by serial position, is walked contiguously — entries
//     already inside the snapshot update only the dedup floors,
//     entries above it replay onto the state. The walk stops at the
//     first hole: everything past a torn, corrupt or shed record was
//     never acknowledged as durable.
//
// If the meta lineage claims coverage the walk could not reach (a
// corrupt newest snapshot combined with lost segments), the session
// table is dropped wholesale rather than resurrected with floors that
// might swallow fresh submissions; such clients simply rejoin.
//
// A generation's commit records sit in one segment, wal-<start>.log, or
// — in a directory an older store wrote — in one wal-<lane>-<start>.log
// per lane. The merge in step 3 never asks which file an entry came
// from, so the two layouts, and a directory holding both (an upgraded
// store keeps its fallback generation's per-lane segments until two
// checkpoints have passed), recover alike.

type segFile struct {
	name  string
	start uint64
}

// scanDir classifies the store directory. Snapshot and meta starts
// come back ascending.
func scanDir(dir string) (snaps, metas []uint64, segs []segFile) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil
	}
	for _, e := range entries {
		n := e.Name()
		switch {
		case strings.HasPrefix(n, "snapshot-") && strings.HasSuffix(n, ".state"):
			if v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "snapshot-"), ".state"), 10, 64); err == nil {
				snaps = append(snaps, v)
			}
		case strings.HasPrefix(n, "meta-") && strings.HasSuffix(n, ".log"):
			if v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "meta-"), ".log"), 10, 64); err == nil {
				metas = append(metas, v)
			}
		case strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log"):
			rest := strings.TrimSuffix(strings.TrimPrefix(n, "wal-"), ".log")
			if i := strings.IndexByte(rest, '-'); i >= 0 {
				// The per-lane layout: the lane must parse, and is then
				// of no further interest.
				if _, err := strconv.ParseInt(rest[:i], 10, 32); err != nil {
					continue
				}
				rest = rest[i+1:]
			}
			if start, err := strconv.ParseUint(rest, 10, 64); err == nil {
				segs = append(segs, segFile{name: n, start: start})
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(metas, func(i, j int) bool { return metas[i] < metas[j] })
	return snaps, metas, segs
}

// recoverDir rebuilds the shadow from dir. Returns the shadow, the
// boot generation of the previous Open (0 if none), and whether any
// snapshot loaded (so Open knows to seed a virgin store from the
// generated base world).
func recoverDir(dir string) (*shadow, uint64, bool, error) {
	sh := newShadow()
	snaps, metas, segs := scanDir(dir)

	// 1. Newest intact snapshot.
	hadSnapshot := false
	var snapSeq uint64
	for i := len(snaps) - 1; i >= 0 && !hadSnapshot; i-- {
		raw, err := os.ReadFile(filepath.Join(dir, snapshotName(snaps[i])))
		if err != nil || len(raw) < 4 {
			continue
		}
		if crc32.ChecksumIEEE(raw[4:]) != binary.LittleEndian.Uint32(raw) {
			continue
		}
		seq, st, err := decodeState(raw[4:])
		if err != nil {
			continue
		}
		sh.state, sh.applied, snapSeq = st, seq, seq
		hadSnapshot = true
	}

	// 2. Newest parseable meta lineage: header, baked sessions, then
	// the appended tail. A file whose first record is not an intact
	// header is skipped before anything from it touches the shadow; a
	// record of any other kind (an older store's reply batch) is skipped.
	var hdr walMetaHdr
	metaOK := false
	var prevBoot uint64
	for i := len(metas) - 1; i >= 0 && !metaOK; i-- {
		raw, err := os.ReadFile(filepath.Join(dir, metaName(metas[i])))
		if err != nil {
			continue
		}
		first, ok := true, true
		scanRecords(raw, func(body []byte) bool {
			if first {
				first = false
				h, herr := decodeMetaHdr(body)
				if herr != nil {
					ok = false
					return false
				}
				hdr = h
				return true
			}
			switch body[0] {
			case recMetaSess:
				if m, err := decodeMetaSess(body); err == nil {
					sh.bake(m)
				}
			case recSession:
				if rec, _, err := decodeSessionFields(body, 1); err == nil {
					sh.open(rec)
				}
			case recQuarantine:
				if rec, err := decodeQuarantineRecord(body); err == nil {
					sh.quarantine(rec)
				}
			}
			return true
		})
		if ok && !first {
			metaOK = true
		}
	}
	if metaOK {
		prevBoot = hdr.boot
		sh.nextBlind = hdr.nextBlind
		if hdr.sessionSeq > sh.sessionSeq {
			sh.sessionSeq = hdr.sessionSeq
		}
	}

	// 3. Merge commit entries across segments by serial position and
	// walk contiguously. The floor base reaches below the snapshot when
	// the meta lineage is older than it (a crash landed between the two
	// publishes): those entries are floor-only — their writes are
	// already inside the snapshot.
	base := snapSeq
	if metaOK && hdr.upTo < base {
		base = hdr.upTo
	}
	type seqRec struct {
		e     walEntry
		blind uint32
	}
	byseq := make(map[uint64]seqRec)
	var arena writeArena // never reset: byseq keeps what it decodes
	for _, sg := range segs {
		raw, err := os.ReadFile(filepath.Join(dir, sg.name))
		if err != nil {
			continue
		}
		scanRecords(raw, func(body []byte) bool {
			if body[0] != recCommit {
				return true
			}
			g, derr := decodeCommitRecord(body, &arena, nil)
			if derr != nil {
				return true
			}
			for _, e := range g.entries {
				if e.seq > base {
					byseq[e.seq] = seqRec{e: e, blind: g.nextBlind}
				}
			}
			return true
		})
	}
	next := base + 1
	for {
		r, ok := byseq[next]
		if !ok {
			break
		}
		if next <= snapSeq {
			// Covered by the snapshot: only the dedup floor is news.
			if sess := sh.sessions[r.e.origin]; sess != nil && r.e.seq > sess.stampFloor && r.e.actSeq > sess.lastActSeq {
				sess.lastActSeq = r.e.actSeq
			}
		} else {
			sh.applyEntry(r.e)
			if r.blind > sh.nextBlind {
				sh.nextBlind = r.blind
			}
		}
		next++
	}
	floorsComplete := next > snapSeq

	// Session floors must never overstate what the walk reached —
	// an inflated floor silently swallows a rejoined client's fresh
	// submissions, which is worse than making it rejoin.
	if metaOK && (hdr.upTo > sh.applied || !floorsComplete) {
		clear(sh.sessions)
	}
	if sh.applied > 0 && !hadSnapshot && len(sh.sessions) > 0 {
		// Segments without any snapshot (a pre-checkpoint crash of a
		// virgin store) cannot prove the base world; sessions stay —
		// their floors derive from the walked prefix — but this path is
		// unreachable with the boot checkpoint Open always cuts, so be
		// conservative anyway.
		clear(sh.sessions)
	}
	return sh, prevBoot, hadSnapshot, nil
}
