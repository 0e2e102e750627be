package durable

// WAL record formats. Every file in the store — the log segments,
// the meta lineage, even the appended tail of a checkpointed meta — is
// a sequence of framed records:
//
//	len(4) crc(4) body
//
// with the CRC32 covering the body. A torn tail (len reaches past the
// file) or a corrupt body stops the scan at the last intact prefix,
// the redo-log semantics the seed store already had. body[0] is the
// record kind:
//
//	recCommit   one InstallContiguous pass's entries for one lane:
//	            lane(4) epoch(8) nextBlind(4) count(4), then per entry
//	            seq(8) origin(4) actSeq(4) ok(1) nwrites(4) writes
//	recSession  a session mint or reset:
//	            cid(4) token(8) mask(8) seqNo(8) stampFloor(8)
//	recMetaHdr  meta lineage header:
//	            boot(8) nextBlind(4) sessionSeq(8) upTo(8)
//	recMetaSess a session baked into a checkpoint: the recSession
//	            fields plus lastActSeq(4)
//	recQuarantine an integrity quarantine verdict (DESIGN.md §16):
//	            cid(4) reason(1) seq(8) — appended to the meta lineage
//	            live and re-baked into it at every checkpoint, so a
//	            cheater cannot launder its ledger through a restart
//
// The journal holds what the engine cannot recompute, and no replies.
// Older stores also wrote kind 3, a reply batch entering a resume window,
// and baked each session's lastSeq(8) and retained batches behind its
// lastActSeq; recovery skips kind 3 like any unknown kind, and the
// session decoder ignores whatever follows lastActSeq, so their
// directories still recover.
//
// Writes inside commit entries and the snapshot-file body reuse the
// seed encoding: id(8) nattr(2) attrs(8 each); snapshot files are
// crc(4) then seq(8) count(4) objects, unchanged so pre-refactor
// checkpoints still load.

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
	recMetaHdr    = 4
	recMetaSess   = 5
	recQuarantine = 6
)

// frameHdrLen is the reserved prefix sealRecord fills in.
const frameHdrLen = 8

// sealRecord fills the length/CRC frame of the record starting at
// offset start in buf (its body was appended after frameHdrLen
// reserved bytes there). Records may be appended back to back into one
// buffer — the meta lineage is written that way.
func sealRecord(buf []byte, start int) []byte {
	body := buf[start+frameHdrLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(body))
	return buf
}

// scanRecords walks the framed records in raw, calling fn with each
// intact body. It stops at the first torn or corrupt record (or when
// fn returns false) and reports whether the whole input was intact.
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
			return true
		}
		raw = raw[frameHdrLen+n:]
	}
	return true
}

// appendWriteList appends the seed write encoding: nwrites(4) then
// id(8) nattr(2) attrs(8 each) per write.
func appendWriteList(buf []byte, ws []world.Write) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ws)))
	for _, w := range ws {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.ID))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.Val)))
		for _, f := range w.Val {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	return buf
}

// writeArena is the storage the decoded writes of a run of commit
// records share: the write records in one growing array, their
// attributes in another, so decoding costs no allocation per write once
// the arrays have grown. The committer resets it after every install
// pass — the shadow copies what it installs — and recovery, which keeps
// the entries it decodes, never does. A slice handed out stays valid
// when the array behind it is outgrown; it merely stops being shared.
type writeArena struct {
	writes []world.Write
	vals   []float64
}

func (a *writeArena) reset() {
	clear(a.writes) // drop the value pointers, keep the array
	a.writes, a.vals = a.writes[:0], a.vals[:0]
}

// decodeWriteList decodes appendWriteList's output from body[off:] into
// arena storage, returning the writes and the offset past them.
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

// appendCommitRecord encodes one lane's slice of a commit group. pick
// selects which of recs belong to this record (the caller partitions a
// group by lane); entries keep their serial order.
func appendCommitRecord(buf []byte, lane int32, epoch uint64, nextBlind uint32, recs []core.CommitRecord, pick func(*core.CommitRecord) bool) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recCommit)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(lane))
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, nextBlind)
	countAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	n := uint32(0)
	for i := range recs {
		r := &recs[i]
		if !pick(r) {
			continue
		}
		n++
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Origin))
		buf = binary.LittleEndian.AppendUint32(buf, r.ActSeq)
		if r.Res.OK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendWriteList(buf, r.Res.Writes)
	}
	binary.LittleEndian.PutUint32(buf[countAt:], n)
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

// walGroup is one decoded recCommit record.
type walGroup struct {
	lane      int32
	epoch     uint64
	nextBlind uint32
	entries   []walEntry
}

// decodeCommitRecord decodes one recCommit body. The entries are
// appended to into (the committer assembles an install pass from its
// lanes' records that way) and their writes live in a.
func decodeCommitRecord(body []byte, a *writeArena, into []walEntry) (walGroup, error) {
	g := walGroup{entries: into}
	if len(body) < 21 || body[0] != recCommit {
		return g, fmt.Errorf("durable: malformed commit record")
	}
	g.lane = int32(binary.LittleEndian.Uint32(body[1:]))
	g.epoch = binary.LittleEndian.Uint64(body[5:])
	g.nextBlind = binary.LittleEndian.Uint32(body[13:])
	n := int(binary.LittleEndian.Uint32(body[17:]))
	off := 21
	for i := 0; i < n; i++ {
		if len(body) < off+17 {
			return g, io.ErrUnexpectedEOF
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
			return g, err
		}
		g.entries = append(g.entries, e)
	}
	return g, nil
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

// metaHdrLen is the framed size of a recMetaHdr record.
const metaHdrLen = frameHdrLen + 1 + 8 + 4 + 8 + 8

// walMetaHdr is a decoded recMetaHdr record.
type walMetaHdr struct {
	boot       uint64
	nextBlind  uint32
	sessionSeq uint64
	upTo       uint64
}

func appendMetaHdr(buf []byte, h walMetaHdr) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recMetaHdr)
	buf = binary.LittleEndian.AppendUint64(buf, h.boot)
	buf = binary.LittleEndian.AppendUint32(buf, h.nextBlind)
	buf = binary.LittleEndian.AppendUint64(buf, h.sessionSeq)
	buf = binary.LittleEndian.AppendUint64(buf, h.upTo)
	return sealRecord(buf, start)
}

func decodeMetaHdr(body []byte) (walMetaHdr, error) {
	if len(body) < 29 || body[0] != recMetaHdr {
		return walMetaHdr{}, fmt.Errorf("durable: malformed meta header")
	}
	return walMetaHdr{
		boot:       binary.LittleEndian.Uint64(body[1:]),
		nextBlind:  binary.LittleEndian.Uint32(body[9:]),
		sessionSeq: binary.LittleEndian.Uint64(body[13:]),
		upTo:       binary.LittleEndian.Uint64(body[21:]),
	}, nil
}

// walMetaSess is a decoded recMetaSess record: a session baked at a
// checkpoint.
type walMetaSess struct {
	walSession
	lastActSeq uint32
}

// metaSessLen is the framed size of a recMetaSess record.
const metaSessLen = frameHdrLen + 1 + 36 + 4

func appendMetaSess(buf []byte, s walSession, lastActSeq uint32) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHdrLen)...)
	buf = append(buf, recMetaSess)
	buf = appendSessionFields(buf, s)
	buf = binary.LittleEndian.AppendUint32(buf, lastActSeq)
	return sealRecord(buf, start)
}

// decodeMetaSess reads the session fields and lastActSeq; what an older
// store baked behind them is ignored.
func decodeMetaSess(body []byte) (walMetaSess, error) {
	var m walMetaSess
	if len(body) < 1 || body[0] != recMetaSess {
		return m, fmt.Errorf("durable: malformed meta session")
	}
	var err error
	var off int
	m.walSession, off, err = decodeSessionFields(body, 1)
	if err != nil {
		return m, err
	}
	if len(body) < off+4 {
		return m, io.ErrUnexpectedEOF
	}
	m.lastActSeq = binary.LittleEndian.Uint32(body[off:])
	return m, nil
}

// encodeSnapshot flattens a state into a snapshot file: crc(4) over the
// body, then the body in the seed format, kept verbatim — seq(8)
// count(4) then id(8) nattr(2) attrs per object, ids ascending.
func encodeSnapshot(seq uint64, st *world.State) []byte {
	ids := st.IDs()
	size := 4 + 12
	for _, id := range ids {
		v, _ := st.Get(id)
		size += 10 + 8*len(v)
	}
	buf := make([]byte, 4, size)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		v, _ := st.Get(id)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(v)))
		for _, f := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	binary.LittleEndian.PutUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	return buf
}

func decodeState(body []byte) (uint64, *world.State, error) {
	if len(body) < 12 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	seq := binary.LittleEndian.Uint64(body)
	n := int(binary.LittleEndian.Uint32(body[8:]))
	st := world.NewState()
	off := 12
	for i := 0; i < n; i++ {
		if len(body) < off+10 {
			return 0, nil, io.ErrUnexpectedEOF
		}
		id := world.ObjectID(binary.LittleEndian.Uint64(body[off:]))
		attrs := int(binary.LittleEndian.Uint16(body[off+8:]))
		off += 10
		if len(body) < off+8*attrs {
			return 0, nil, io.ErrUnexpectedEOF
		}
		val := make(world.Value, attrs)
		for j := range val {
			val[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8*j:]))
		}
		off += 8 * attrs
		st.Set(id, val)
	}
	return seq, st, nil
}
