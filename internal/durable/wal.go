package durable

// Record formats. Both files of a generation — its image and its
// segment — are sequences of framed records:
//
//	len(4) crc(4) body
//
// with the CRC32 covering the body. A torn tail (len reaches past the
// file) or a corrupt body stops the scan at the last intact prefix,
// the redo-log semantics the seed store already had. body[0] is the
// record kind:
//
//	recCommit     one install pass: nextBlind(4) count(4), then per
//	              entry seq(8) origin(4) actSeq(4) ok(1) nwrites(4) writes
//	recSession    a session mint or reset:
//	              cid(4) token(8) mask(8) seqNo(8) stampFloor(8)
//	recImage      an image's first record: the watermarks and the world,
//	              boot(8) nextBlind(4) sessionSeq(8) upTo(8) then every
//	              object as a write list, ids ascending
//	recImageSess  a session baked into an image: the recSession fields
//	              plus lastActSeq(4)
//	recQuarantine an integrity quarantine verdict (DESIGN.md §16):
//	              cid(4) reason(1) seq(8)
//
// A segment holds commit, session and quarantine records in the order
// the engine emitted them; an image is one recImage followed by the
// baked sessions and the verdicts. The journal holds what the engine
// cannot recompute, and no replies. Writes, in commit entries and in
// the image alike, use the seed encoding: id(8) nattr(2) attrs(8 each).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/world"
)

const (
	recCommit     = 1
	recSession    = 2
	recImage      = 4
	recImageSess  = 5
	recQuarantine = 6
)

// frameHdrLen is the reserved prefix sealRecord fills in.
const frameHdrLen = 8

// sealRecord fills the length/CRC frame of the record starting at
// offset start in buf (its body was appended after frameHdrLen
// reserved bytes there). Records may be appended back to back into one
// buffer — an image is written that way.
func sealRecord(buf []byte, start int) []byte {
	body := buf[start+frameHdrLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(body))
	return buf
}

// scanRecords walks the framed records in raw, calling fn with each
// intact body. It stops at the first torn or corrupt record, or when fn
// returns false, and reports whether it walked the whole input.
func scanRecords(raw []byte, fn func(body []byte) bool) bool {
	for len(raw) > 0 {
		if len(raw) < frameHdrLen {
			return false
		}
		n := int(binary.LittleEndian.Uint32(raw))
		want := binary.LittleEndian.Uint32(raw[4:])
		if n < 1 || len(raw) < frameHdrLen+n {
			return false // torn tail
		}
		body := raw[frameHdrLen : frameHdrLen+n]
		if crc32.ChecksumIEEE(body) != want {
			return false // corruption: stop at the intact prefix
		}
		if !fn(body) {
			return false
		}
		raw = raw[frameHdrLen+n:]
	}
	return true
}

// appendWrite appends one write in the seed encoding: id(8) nattr(2)
// attrs(8 each).
func appendWrite(buf []byte, id world.ObjectID, val world.Value) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(val)))
	for _, f := range val {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

// writeArena is the storage the decoded writes of a record share: the
// write records in one growing array, their attributes in another, so
// decoding costs no allocation per write once the arrays have grown. It
// is reset after every record — the shadow copies what it installs. A
// slice handed out stays valid when the array behind it is outgrown; it
// merely stops being shared.
type writeArena struct {
	writes []world.Write
	vals   []float64
}

func (a *writeArena) reset() {
	clear(a.writes) // drop the value pointers, keep the array
	a.writes, a.vals = a.writes[:0], a.vals[:0]
}

// decodeWriteList decodes a write count(4) and that many writes from
// body[off:] into arena storage, returning the writes and the offset
// past them.
func decodeWriteList(body []byte, off int, a *writeArena) ([]world.Write, int, error) {
	if len(body) < off+4 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	first := len(a.writes)
	for i := 0; i < n; i++ {
		if len(body) < off+10 {
			return nil, 0, io.ErrUnexpectedEOF
		}
		id := world.ObjectID(binary.LittleEndian.Uint64(body[off:]))
		attrs := int(binary.LittleEndian.Uint16(body[off+8:]))
		off += 10
		if len(body) < off+8*attrs {
			return nil, 0, io.ErrUnexpectedEOF
		}
		v0 := len(a.vals)
		for j := 0; j < attrs; j++ {
			a.vals = append(a.vals, math.Float64frombits(binary.LittleEndian.Uint64(body[off+8*j:])))
		}
		off += 8 * attrs
		a.writes = append(a.writes, world.Write{ID: id, Val: a.vals[v0:len(a.vals):len(a.vals)]})
	}
	return a.writes[first:len(a.writes):len(a.writes)], off, nil
}

// appendCommitRecord encodes one install pass, its entries in serial
// order.
func appendCommitRecord(buf []byte, nextBlind uint32, recs []core.CommitRecord) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recCommit)
	buf = binary.LittleEndian.AppendUint32(buf, nextBlind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Origin))
		buf = binary.LittleEndian.AppendUint32(buf, r.ActSeq)
		if r.Res.OK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Res.Writes)))
		for _, w := range r.Res.Writes {
			buf = appendWrite(buf, w.ID, w.Val)
		}
	}
	return sealRecord(buf, start)
}

// walEntry is one decoded commit entry.
type walEntry struct {
	seq    uint64
	origin action.ClientID
	actSeq uint32
	ok     bool
	writes []world.Write
}

// decodeCommitRecord decodes one recCommit body: the blind-write
// high-water mark and the entries, appended to into, their writes in a.
func decodeCommitRecord(body []byte, a *writeArena, into []walEntry) (uint32, []walEntry, error) {
	if len(body) < 9 || body[0] != recCommit {
		return 0, into, fmt.Errorf("durable: malformed commit record")
	}
	nextBlind := binary.LittleEndian.Uint32(body[1:])
	n := int(binary.LittleEndian.Uint32(body[5:]))
	off := 9
	for i := 0; i < n; i++ {
		if len(body) < off+17 {
			return 0, into, io.ErrUnexpectedEOF
		}
		e := walEntry{
			seq:    binary.LittleEndian.Uint64(body[off:]),
			origin: action.ClientID(int32(binary.LittleEndian.Uint32(body[off+8:]))),
			actSeq: binary.LittleEndian.Uint32(body[off+12:]),
			ok:     body[off+16] == 1,
		}
		off += 17
		var err error
		e.writes, off, err = decodeWriteList(body, off, a)
		if err != nil {
			return 0, into, err
		}
		into = append(into, e)
	}
	return nextBlind, into, nil
}

// walSession is a decoded recSession record.
type walSession struct {
	id         action.ClientID
	token      uint64
	mask       uint64
	seqNo      uint64
	stampFloor uint64
}

func appendSessionRecord(buf []byte, s walSession) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recSession)
	buf = appendSessionFields(buf, s)
	return sealRecord(buf, start)
}

func appendSessionFields(buf []byte, s walSession) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.id))
	buf = binary.LittleEndian.AppendUint64(buf, s.token)
	buf = binary.LittleEndian.AppendUint64(buf, s.mask)
	buf = binary.LittleEndian.AppendUint64(buf, s.seqNo)
	buf = binary.LittleEndian.AppendUint64(buf, s.stampFloor)
	return buf
}

func decodeSessionFields(body []byte, off int) (walSession, int, error) {
	if len(body) < off+36 {
		return walSession{}, 0, io.ErrUnexpectedEOF
	}
	s := walSession{
		id:         action.ClientID(int32(binary.LittleEndian.Uint32(body[off:]))),
		token:      binary.LittleEndian.Uint64(body[off+4:]),
		mask:       binary.LittleEndian.Uint64(body[off+12:]),
		seqNo:      binary.LittleEndian.Uint64(body[off+20:]),
		stampFloor: binary.LittleEndian.Uint64(body[off+28:]),
	}
	return s, off + 36, nil
}

// quarantineRecLen is the framed size of a recQuarantine record.
const quarantineRecLen = frameHdrLen + 1 + 4 + 1 + 8

// walQuarantine is a decoded recQuarantine record.
type walQuarantine struct {
	id     action.ClientID
	reason uint8
	seq    uint64
}

func appendQuarantineRecord(buf []byte, q walQuarantine) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recQuarantine)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.id))
	buf = append(buf, q.reason)
	buf = binary.LittleEndian.AppendUint64(buf, q.seq)
	return sealRecord(buf, start)
}

func decodeQuarantineRecord(body []byte) (walQuarantine, error) {
	if len(body) < 14 || body[0] != recQuarantine {
		return walQuarantine{}, fmt.Errorf("durable: malformed quarantine record")
	}
	return walQuarantine{
		id:     action.ClientID(int32(binary.LittleEndian.Uint32(body[1:]))),
		reason: body[5],
		seq:    binary.LittleEndian.Uint64(body[6:]),
	}, nil
}

// imageHdrLen is the framed size of a recImage record before its
// objects.
const imageHdrLen = frameHdrLen + 1 + 8 + 4 + 8 + 8 + 4

// imageSessLen is the framed size of a recImageSess record.
const imageSessLen = frameHdrLen + 1 + 36 + 4

// appendImageRecord appends sh's recImage record: its watermarks, then
// the objects ids names, ascending.
func appendImageRecord(buf []byte, sh *shadow, ids world.IDSet) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recImage)
	buf = binary.LittleEndian.AppendUint64(buf, sh.boot)
	buf = binary.LittleEndian.AppendUint32(buf, sh.nextBlind)
	buf = binary.LittleEndian.AppendUint64(buf, sh.sessionSeq)
	buf = binary.LittleEndian.AppendUint64(buf, sh.applied)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		v, _ := sh.state.Get(id)
		buf = appendWrite(buf, id, v)
	}
	return sealRecord(buf, start)
}

// decodeImageRecord decodes a recImage body into a fresh shadow.
func decodeImageRecord(body []byte) (*shadow, error) {
	if len(body) < imageHdrLen-frameHdrLen || body[0] != recImage {
		return nil, fmt.Errorf("durable: malformed image")
	}
	sh := newShadow()
	sh.boot = binary.LittleEndian.Uint64(body[1:])
	sh.nextBlind = binary.LittleEndian.Uint32(body[9:])
	sh.sessionSeq = binary.LittleEndian.Uint64(body[13:])
	sh.applied = binary.LittleEndian.Uint64(body[21:])
	ws, _, err := decodeWriteList(body, 29, &sh.arena)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		sh.state.Set(w.ID, w.Val)
	}
	sh.arena.reset()
	return sh, nil
}

func appendImageSess(buf []byte, s shadowSession) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recImageSess)
	buf = appendSessionFields(buf, s.walSession)
	buf = binary.LittleEndian.AppendUint32(buf, s.lastActSeq)
	return sealRecord(buf, start)
}

func decodeImageSess(body []byte) (shadowSession, error) {
	var s shadowSession
	if len(body) < imageSessLen-frameHdrLen || body[0] != recImageSess {
		return s, fmt.Errorf("durable: malformed image session")
	}
	s.walSession, _, _ = decodeSessionFields(body, 1)
	s.lastActSeq = binary.LittleEndian.Uint32(body[37:])
	return s, nil
}
