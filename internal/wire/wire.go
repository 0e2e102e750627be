// Package wire defines the messages exchanged between clients and the
// server and their binary encoding. The same encoding serves two
// purposes: it frames traffic in the real TCP deployment
// (cmd/seve-server, cmd/seve-client), and its byte counts drive the
// simulated bandwidth model behind the Figure 9 data-transfer experiment.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"seve/internal/action"
	"seve/internal/world"
)

// MsgType discriminates messages on the wire.
type MsgType uint8

// Message type codes.
const (
	TypeSubmit     MsgType = 1  // client → server: a new action (Algorithm 1/4, step 2)
	TypeBatch      MsgType = 2  // server → client: serialized actions (Algorithm 2/6 reply or First Bound push)
	TypeCompletion MsgType = 3  // client → server: stable result of an action (Algorithm 4, step 5)
	TypeDrop       MsgType = 4  // server → client: action aborted by the Information Bound Model
	TypeHello      MsgType = 5  // client → server: join (real deployment only)
	TypeWelcome    MsgType = 6  // server → client: assigned id + initial world (real deployment only)
	TypeLockGrant  MsgType = 7  // server → client: locks acquired (lock-based baseline, Section II-B)
	TypeRelay      MsgType = 8  // server → relay client → peers: hybrid P2P push delegation (Section VII)
	TypeResume     MsgType = 9  // client → server: reconnect with session token + last applied batch
	TypeCatchUp    MsgType = 10 // server → client: resume verdict + catch-up seed (suffix or snapshot)
	TypeQuarantine MsgType = 11 // server → client: integrity quarantine verdict; the connection closes after it
)

// Msg is any protocol message. WireSize reports the exact encoded size in
// bytes (excluding the 5-byte frame header used on TCP), which the
// network simulator charges against link bandwidth.
type Msg interface {
	WireSize() int
	Type() MsgType
}

// Submit carries a freshly created action from its origin client to the
// server.
type Submit struct {
	Env action.Envelope
}

// Type returns TypeSubmit.
func (m *Submit) Type() MsgType { return TypeSubmit }

// WireSize returns the encoded size.
func (m *Submit) WireSize() int { return envelopeSize(m.Env) }

// Batch carries serialized actions from the server to a client: the reply
// to a submission (all actions between posC and pos(a) under Algorithm 2,
// or the transitive closure plus blind write under Algorithm 6), or a
// proactive First Bound push.
type Batch struct {
	Envs []action.Envelope
	// Push marks proactive First Bound batches, which require no reply.
	Push bool
	// InstalledUpTo piggybacks the server's last installed serial
	// position so clients can garbage-collect old versions
	// (Section III-C memory optimization).
	InstalledUpTo uint64
	// ClientSeq is the per-recipient batch sequence number. Batches from
	// a core.Server are numbered 1, 2, 3, … per client and the client
	// processes them in that order, buffering gaps: with hybrid relays a
	// batch can take a two-hop path and arrive after a younger direct
	// reply, and out-of-order application would violate the closure's
	// sent() assumptions. Zero marks an unsequenced batch (baseline
	// architectures), processed immediately.
	ClientSeq uint64
	// CoversFrom, when non-zero, marks a coalesced batch: the transport's
	// superseding writer queue merged the undelivered batches numbered
	// CoversFrom..ClientSeq (contiguous, same Push flag) into this one,
	// envelopes concatenated in the original order. Applying the merged
	// batch atomically equals applying the originals in sequence, so the
	// client treats it as satisfying every covered sequence number. Zero
	// marks an ordinary single-sequence batch.
	CoversFrom uint64
}

// Type returns TypeBatch.
func (m *Batch) Type() MsgType { return TypeBatch }

// WireSize returns the encoded size.
func (m *Batch) WireSize() int {
	n := 1 + 8 + 8 + 8 + 4 // push flag + installedUpTo + clientSeq + coversFrom + count
	for _, e := range m.Envs {
		n += envelopeSize(e)
	}
	return n
}

// Completion reports to the server the stable result u of action Seq, as
// computed by client By against ζCS. The server installs the writes into
// ζS (Algorithm 5, step 5). Under the failure-tolerance extension every
// client that evaluates an action sends one, and By identifies which.
type Completion struct {
	Seq uint64
	By  action.ClientID
	Res action.Result
}

// Type returns TypeCompletion.
func (m *Completion) Type() MsgType { return TypeCompletion }

// WireSize returns the encoded size.
func (m *Completion) WireSize() int {
	return 8 + 4 + resultSize(m.Res)
}

// Drop tells an action's origin client that the Information Bound Model
// invalidated it (Algorithm 7: isValid = false); the client aborts the
// action locally and reconciles.
type Drop struct {
	ActID action.ID
}

// Type returns TypeDrop.
func (m *Drop) Type() MsgType { return TypeDrop }

// WireSize returns the encoded size.
func (m *Drop) WireSize() int { return 8 }

// Hello requests to join (real deployment).
type Hello struct {
	// InterestMask selects interest classes for inconsequential action
	// elimination; 0 means all classes.
	InterestMask uint64
}

// Type returns TypeHello.
func (m *Hello) Type() MsgType { return TypeHello }

// WireSize returns the encoded size.
func (m *Hello) WireSize() int { return 8 }

// LockGrant tells a client that all locks for its pending action were
// acquired (the lock-based protocol family of Section II-B): the client
// may now execute the action and return its effect as a Completion. Seq
// is the action's serialized position; ActID names which pending action
// was granted.
type LockGrant struct {
	Seq   uint64
	ActID action.ID
}

// Type returns TypeLockGrant.
func (m *LockGrant) Type() MsgType { return TypeLockGrant }

// WireSize returns the encoded size.
func (m *LockGrant) WireSize() int { return 8 + 8 }

// Relay is the hybrid-architecture push (the Section VII future-work
// direction, implemented): instead of unicasting one push Batch per
// client, the server sends a shared neighbourhood Batch to a single
// relay client, which applies it and forwards it peer-to-peer to the
// other targets. Server egress drops by roughly the neighbourhood size.
type Relay struct {
	// Targets are the clients that must receive Inner — the relay itself
	// (first entry by convention) plus its peers.
	Targets []action.ClientID
	// TargetSeqs are the per-recipient ClientSeq values, parallel to
	// Targets; the relay rewrites them into the forwarded copies.
	TargetSeqs []uint64
	Inner      *Batch
}

// Type returns TypeRelay.
func (m *Relay) Type() MsgType { return TypeRelay }

// WireSize returns the encoded size.
func (m *Relay) WireSize() int { return 4 + 12*len(m.Targets) + m.Inner.WireSize() }

// Welcome assigns the joining client its id and ships the initial world
// (real deployment).
type Welcome struct {
	You action.ClientID
	// Token is the session token the client presents in a later Resume.
	// Zero means the server does not retain sessions (Config.ResumeWindow
	// disabled) and reconnection must rejoin from scratch.
	Token uint64
	// Boot is the server's recovery generation — how many times its
	// durable store has been opened. The client remembers it; a CatchUp
	// carrying a different Boot means the serial timeline restarted and
	// retained completions from the old boot must not be re-sent.
	Boot uint64
	Init []world.Write
}

// Type returns TypeWelcome.
func (m *Welcome) Type() MsgType { return TypeWelcome }

// WireSize returns the encoded size.
func (m *Welcome) WireSize() int {
	return 4 + 8 + 8 + writesSize(m.Init)
}

// Resume asks the server to revive the session identified by Token
// (issued in Welcome) after a connection loss. LastBatchSeq is the
// highest contiguously applied per-client batch sequence number
// (Batch.ClientSeq); the server replays everything after it, or falls
// back to a snapshot when its retained window no longer reaches back
// that far.
type Resume struct {
	Token        uint64
	LastBatchSeq uint64
}

// Type returns TypeResume.
func (m *Resume) Type() MsgType { return TypeResume }

// WireSize returns the encoded size.
func (m *Resume) WireSize() int { return 8 + 8 }

// CatchUp is the server's verdict on a Resume. With OK unset the
// session is unknown (token expired or never issued) and the client
// must rejoin via Hello. With OK set and Snapshot unset, the retained
// suffix of batches follows this message and the client resumes by
// applying them in ClientSeq order as usual. With Snapshot set the
// retained window no longer covers the client's gap: Writes carries the
// full blind write W(S, ζS(S)) over the client's interest set at the
// server's install point (Algorithm 6 generalized to the whole state),
// the client rebuilds ζCS/ζCO from it, and batch numbering restarts at
// NextBatchSeq.
type CatchUp struct {
	OK       bool
	Snapshot bool
	// Boot is the server's recovery generation at the time of the
	// verdict. When it differs from the Boot the client joined under,
	// the server restarted between the sessions: serial positions above
	// BootFloor were rolled back and re-issued, so everything the client
	// holds for them — retained completions, committed-but-uninstalled
	// own actions, stable versions — is fenced or rolled back.
	Boot uint64
	// BootFloor is the install point the current boot recovered at: the
	// highest serial position that survived the most recent restart.
	// InstalledUpTo cannot serve as the fence because the restarted
	// server may have re-issued positions above the floor before this
	// resume arrived. Zero on a never-restarted server.
	BootFloor uint64
	// InstalledUpTo is the server's install point at the snapshot cut (or
	// at resume time for a suffix replay); the rebuilt stable store is
	// seeded at this version.
	InstalledUpTo uint64
	// NextBatchSeq is the ClientSeq the next batch will carry after a
	// snapshot resume (suffix replays keep the old numbering; zero).
	NextBatchSeq uint64
	// LastActSeq is the per-client action sequence number of the last
	// submission the server accepted from this client; anything the
	// client still holds queued above it was lost in flight and must be
	// re-submitted.
	LastActSeq uint32
	// DroppedActs lists actions the Information Bound Model invalidated
	// while the client was away (their Drop messages were lost with the
	// connection).
	DroppedActs []action.ID
	// Writes is the snapshot blind write; empty for suffix replays.
	Writes []world.Write
}

// Type returns TypeCatchUp.
func (m *CatchUp) Type() MsgType { return TypeCatchUp }

// WireSize returns the encoded size.
func (m *CatchUp) WireSize() int {
	return 1 + 8 + 8 + 8 + 8 + 4 + 4 + 8*len(m.DroppedActs) + writesSize(m.Writes)
}

// Quarantine is the server's final verdict on a client that violated
// semantic integrity (internal/integrity): a forged write set, a
// tampered completion result, or a replayed completion that disagrees
// with the installed history. The verdict is the last message the client
// receives — the transport closes the connection after delivering it,
// and the session token is dead (resume and rejoin are rejected while
// the ledger stays quarantined).
type Quarantine struct {
	// Reason is the integrity.Violation code.
	Reason uint8
	// Seq is the serial position of the offending completion; zero when
	// the violation was not tied to a position.
	Seq uint64
	// Detail carries reason-specific evidence (the forged object id for
	// footprint violations); zero otherwise.
	Detail uint64
}

// Type returns TypeQuarantine.
func (m *Quarantine) Type() MsgType { return TypeQuarantine }

// WireSize returns the encoded size.
func (m *Quarantine) WireSize() int { return 1 + 8 + 8 }

// writesSize is the encoded size of a writes section: count(4) +
// records (id(8) len(2) attrs).
func writesSize(ws []world.Write) int {
	n := 4
	for _, w := range ws {
		n += 8 + 2 + 8*len(w.Val)
	}
	return n
}

// envelopeSize is the encoded size of one envelope: seq(8) origin(4)
// actClient(4) actSeq(4) kind(2) bodyLen(4) body.
func envelopeSize(e action.Envelope) int {
	return 8 + 4 + 4 + 4 + 2 + 4 + len(e.Act.MarshalBody())
}

// resultSize is the encoded size of a result: ok(1) count(4) + records.
func resultSize(r action.Result) int {
	n := 1 + 4
	for _, w := range r.Writes {
		n += 8 + 2 + 8*len(w.Val)
	}
	return n
}

// Decoder reconstructs application actions from their kind and body. The
// registry is global because action kinds are global protocol constants;
// it is guarded for the concurrent TCP deployment.
//
// slab is where a decoder should cut the action's id sets and values
// from, and the action struct itself (world.Obj): the actions of one
// batch then share a fixed number of allocations between them (see
// world.Slab for what that means for their lifetime). It is nil for a
// message that carries a single action.
type Decoder func(id action.ID, body []byte, slab *world.Slab) (action.Action, error)

var (
	registryMu sync.RWMutex
	registry   = map[action.Kind]Decoder{}
)

// RegisterKind installs the decoder for an action kind. Registering the
// same kind twice panics: two applications disagreeing about a kind code
// is a deployment error that must not be masked.
func RegisterKind(k action.Kind, d Decoder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[k]; dup {
		panic(fmt.Sprintf("wire: action kind %d registered twice", k))
	}
	registry[k] = d
}

func decoderFor(k action.Kind) (Decoder, error) {
	if k == action.KindBlindWrite {
		return func(id action.ID, body []byte, slab *world.Slab) (action.Action, error) {
			return action.UnmarshalBlindWrite(id, body, slab)
		}, nil
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	d, ok := registry[k]
	if !ok {
		return nil, fmt.Errorf("wire: unknown action kind %d", k)
	}
	return d, nil
}

// --- encoding helpers ---

func appendEnvelope(buf []byte, e action.Envelope) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Origin))
	id := e.Act.ID()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id.Client))
	buf = binary.LittleEndian.AppendUint32(buf, id.Seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(e.Act.Kind()))
	// Reserve the body length and backfill it after appending the body,
	// so BodyAppender actions serialize straight into buf with no
	// intermediate slice.
	lenOff := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	if ba, ok := e.Act.(action.BodyAppender); ok {
		buf = ba.AppendBody(buf)
	} else {
		buf = append(buf, e.Act.MarshalBody()...)
	}
	binary.LittleEndian.PutUint32(buf[lenOff:], uint32(len(buf)-lenOff-4))
	return buf
}

// envelopeHdr is the fixed part of an encoded envelope: seq(8) origin(4)
// actClient(4) actSeq(4) kind(2) bodyLen(4).
const envelopeHdr = 8 + 4 + 4 + 4 + 2 + 4

func decodeEnvelope(buf []byte, slab *world.Slab) (action.Envelope, int, error) {
	if len(buf) < envelopeHdr {
		return action.Envelope{}, 0, fmt.Errorf("wire: envelope header truncated")
	}
	seq := binary.LittleEndian.Uint64(buf)
	origin := action.ClientID(int32(binary.LittleEndian.Uint32(buf[8:])))
	actID := action.ID{
		Client: action.ClientID(int32(binary.LittleEndian.Uint32(buf[12:]))),
		Seq:    binary.LittleEndian.Uint32(buf[16:]),
	}
	kind := action.Kind(binary.LittleEndian.Uint16(buf[20:]))
	blen := int(binary.LittleEndian.Uint32(buf[22:]))
	if len(buf) < envelopeHdr+blen {
		return action.Envelope{}, 0, fmt.Errorf("wire: envelope body truncated")
	}
	dec, err := decoderFor(kind)
	if err != nil {
		return action.Envelope{}, 0, err
	}
	act, err := dec(actID, buf[envelopeHdr:envelopeHdr+blen], slab)
	if err != nil {
		return action.Envelope{}, 0, fmt.Errorf("wire: decoding kind %d: %w", kind, err)
	}
	return action.Envelope{Seq: seq, Origin: origin, Act: act}, envelopeHdr + blen, nil
}

// batchSlab sizes the slab of a batch of n envelopes from their headers:
// blind-write bodies bound the value array, every other body the id
// array, and each other body may ask for one struct from the arena. Ids
// and attributes are 8 bytes on the wire, so a body of b bytes carries at
// most b/8 of them. The pass stops at the first envelope the buffer
// cannot hold, which the decode then rejects, so no bound exceeds what
// the buffer bears out.
func batchSlab(buf []byte, n int) *world.Slab {
	var ids, vals, objs int
	for ; n > 0 && len(buf) >= envelopeHdr; n-- {
		blen := int(binary.LittleEndian.Uint32(buf[22:]))
		if len(buf) < envelopeHdr+blen {
			break
		}
		if action.Kind(binary.LittleEndian.Uint16(buf[20:])) == action.KindBlindWrite {
			vals += blen / 8
		} else {
			ids += blen / 8
			objs++
		}
		buf = buf[envelopeHdr+blen:]
	}
	return world.NewSlab(ids, vals, objs)
}

func appendWrites(buf []byte, ws []world.Write) []byte {
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

func decodeWrites(buf []byte) ([]world.Write, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("wire: writes header truncated")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	off := 4
	// The count is untrusted: cap the allocation hint by what the buffer
	// could actually hold (≥10 bytes per record) so a forged count cannot
	// pre-allocate unboundedly before the loop's length checks reject it.
	capHint := n
	if max := (len(buf) - off) / 10; capHint > max {
		capHint = max
	}
	ws := make([]world.Write, 0, capHint)
	for i := 0; i < n; i++ {
		if len(buf) < off+10 {
			return nil, 0, fmt.Errorf("wire: write record %d truncated", i)
		}
		id := world.ObjectID(binary.LittleEndian.Uint64(buf[off:]))
		attrs := int(binary.LittleEndian.Uint16(buf[off+8:]))
		off += 10
		if len(buf) < off+attrs*8 {
			return nil, 0, fmt.Errorf("wire: write value %d truncated", i)
		}
		val := make(world.Value, attrs)
		for j := 0; j < attrs; j++ {
			val[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+j*8:]))
		}
		off += attrs * 8
		ws = append(ws, world.Write{ID: id, Val: val})
	}
	return ws, off, nil
}

// Encode serializes msg (without the TCP frame header) into a fresh
// buffer. Hot paths should prefer AppendMsg/EncodeTo with a pooled or
// reused buffer; Encode remains for one-shot callers and tests.
func Encode(msg Msg) []byte {
	return AppendMsg(nil, msg)
}

// EncodeTo serializes msg into buf's backing array, overwriting its
// contents, and returns the encoded payload (which may be a grown
// slice). It is the buffer-reusing form of Encode.
func EncodeTo(buf []byte, msg Msg) []byte {
	return AppendMsg(buf[:0], msg)
}

// AppendMsg appends msg's encoding (without the TCP frame header) to buf
// and returns the extended slice.
func AppendMsg(buf []byte, msg Msg) []byte {
	return appendMsgCached(buf, msg, nil)
}

// appendMsgCached is AppendMsg with an optional encode-once cache for
// the envelope section of Batch and Relay messages.
func appendMsgCached(buf []byte, msg Msg, c *EncodeCache) []byte {
	switch m := msg.(type) {
	case *Submit:
		return appendEnvelope(buf, m.Env)
	case *Batch:
		return appendBatch(buf, m, c)
	case *Completion:
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.By))
		ok := byte(0)
		if m.Res.OK {
			ok = 1
		}
		buf = append(buf, ok)
		return appendWrites(buf, m.Res.Writes)
	case *Drop:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ActID.Client))
		return binary.LittleEndian.AppendUint32(buf, m.ActID.Seq)
	case *Hello:
		return binary.LittleEndian.AppendUint64(buf, m.InterestMask)
	case *LockGrant:
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.ActID.Client))
		return binary.LittleEndian.AppendUint32(buf, m.ActID.Seq)
	case *Relay:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Targets)))
		for i, t := range m.Targets {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
			var seq uint64
			if i < len(m.TargetSeqs) {
				seq = m.TargetSeqs[i]
			}
			buf = binary.LittleEndian.AppendUint64(buf, seq)
		}
		return appendBatch(buf, m.Inner, c)
	case *Welcome:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.You))
		buf = binary.LittleEndian.AppendUint64(buf, m.Token)
		buf = binary.LittleEndian.AppendUint64(buf, m.Boot)
		return appendWrites(buf, m.Init)
	case *Resume:
		buf = binary.LittleEndian.AppendUint64(buf, m.Token)
		return binary.LittleEndian.AppendUint64(buf, m.LastBatchSeq)
	case *CatchUp:
		var flags byte
		if m.OK {
			flags |= 1
		}
		if m.Snapshot {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, m.Boot)
		buf = binary.LittleEndian.AppendUint64(buf, m.BootFloor)
		buf = binary.LittleEndian.AppendUint64(buf, m.InstalledUpTo)
		buf = binary.LittleEndian.AppendUint64(buf, m.NextBatchSeq)
		buf = binary.LittleEndian.AppendUint32(buf, m.LastActSeq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.DroppedActs)))
		for _, id := range m.DroppedActs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id.Client))
			buf = binary.LittleEndian.AppendUint32(buf, id.Seq)
		}
		return appendWrites(buf, m.Writes)
	case *Quarantine:
		buf = append(buf, m.Reason)
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		return binary.LittleEndian.AppendUint64(buf, m.Detail)
	default:
		panic(fmt.Sprintf("wire: cannot encode %T", msg))
	}
}

// appendBatch appends a Batch payload: the 29-byte per-recipient header
// (push flag, installedUpTo, clientSeq, coversFrom, count) followed by
// the envelope section, which sibling batches share and a non-nil cache
// serializes only once.
func appendBatch(buf []byte, m *Batch, c *EncodeCache) []byte {
	flag := byte(0)
	if m.Push {
		flag = 1
	}
	buf = append(buf, flag)
	buf = binary.LittleEndian.AppendUint64(buf, m.InstalledUpTo)
	buf = binary.LittleEndian.AppendUint64(buf, m.ClientSeq)
	buf = binary.LittleEndian.AppendUint64(buf, m.CoversFrom)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Envs)))
	if c != nil && len(m.Envs) > 0 {
		return append(buf, c.envTail(m.Envs)...)
	}
	for _, e := range m.Envs {
		buf = appendEnvelope(buf, e)
	}
	return buf
}

// Decode reconstructs a message of the given type from its encoded form.
func Decode(t MsgType, buf []byte) (Msg, error) {
	switch t {
	case TypeSubmit:
		env, _, err := decodeEnvelope(buf, nil)
		if err != nil {
			return nil, err
		}
		return &Submit{Env: env}, nil
	case TypeBatch:
		if len(buf) < 29 {
			return nil, fmt.Errorf("wire: batch header truncated")
		}
		m := &Batch{
			Push:          buf[0] == 1,
			InstalledUpTo: binary.LittleEndian.Uint64(buf[1:]),
			ClientSeq:     binary.LittleEndian.Uint64(buf[9:]),
			CoversFrom:    binary.LittleEndian.Uint64(buf[17:]),
		}
		n := int(binary.LittleEndian.Uint32(buf[25:]))
		off := 29
		// The count is untrusted: as in decodeWrites, it sizes Envs only
		// as far as the buffer could hold that many envelopes.
		capHint := n
		if max := (len(buf) - off) / envelopeHdr; capHint > max {
			capHint = max
		}
		var slab *world.Slab
		if capHint > 0 {
			m.Envs = make([]action.Envelope, 0, capHint)
			slab = batchSlab(buf[off:], n)
		}
		for i := 0; i < n; i++ {
			env, sz, err := decodeEnvelope(buf[off:], slab)
			if err != nil {
				return nil, err
			}
			m.Envs = append(m.Envs, env)
			off += sz
		}
		return m, nil
	case TypeCompletion:
		if len(buf) < 13 {
			return nil, fmt.Errorf("wire: completion truncated")
		}
		m := &Completion{
			Seq: binary.LittleEndian.Uint64(buf),
			By:  action.ClientID(int32(binary.LittleEndian.Uint32(buf[8:]))),
		}
		m.Res.OK = buf[12] == 1
		ws, _, err := decodeWrites(buf[13:])
		if err != nil {
			return nil, err
		}
		m.Res.Writes = ws
		return m, nil
	case TypeDrop:
		if len(buf) < 8 {
			return nil, fmt.Errorf("wire: drop truncated")
		}
		return &Drop{ActID: action.ID{
			Client: action.ClientID(int32(binary.LittleEndian.Uint32(buf))),
			Seq:    binary.LittleEndian.Uint32(buf[4:]),
		}}, nil
	case TypeHello:
		if len(buf) < 8 {
			return nil, fmt.Errorf("wire: hello truncated")
		}
		return &Hello{InterestMask: binary.LittleEndian.Uint64(buf)}, nil
	case TypeLockGrant:
		if len(buf) < 16 {
			return nil, fmt.Errorf("wire: lock grant truncated")
		}
		return &LockGrant{
			Seq: binary.LittleEndian.Uint64(buf),
			ActID: action.ID{
				Client: action.ClientID(int32(binary.LittleEndian.Uint32(buf[8:]))),
				Seq:    binary.LittleEndian.Uint32(buf[12:]),
			},
		}, nil
	case TypeRelay:
		if len(buf) < 4 {
			return nil, fmt.Errorf("wire: relay truncated")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		if len(buf) < 4+12*n {
			return nil, fmt.Errorf("wire: relay targets truncated")
		}
		m := &Relay{}
		for i := 0; i < n; i++ {
			off := 4 + 12*i
			m.Targets = append(m.Targets,
				action.ClientID(int32(binary.LittleEndian.Uint32(buf[off:]))))
			m.TargetSeqs = append(m.TargetSeqs, binary.LittleEndian.Uint64(buf[off+4:]))
		}
		inner, err := Decode(TypeBatch, buf[4+12*n:])
		if err != nil {
			return nil, err
		}
		m.Inner = inner.(*Batch)
		return m, nil
	case TypeWelcome:
		if len(buf) < 20 {
			return nil, fmt.Errorf("wire: welcome truncated")
		}
		m := &Welcome{
			You:   action.ClientID(int32(binary.LittleEndian.Uint32(buf))),
			Token: binary.LittleEndian.Uint64(buf[4:]),
			Boot:  binary.LittleEndian.Uint64(buf[12:]),
		}
		ws, _, err := decodeWrites(buf[20:])
		if err != nil {
			return nil, err
		}
		m.Init = ws
		return m, nil
	case TypeResume:
		if len(buf) < 16 {
			return nil, fmt.Errorf("wire: resume truncated")
		}
		return &Resume{
			Token:        binary.LittleEndian.Uint64(buf),
			LastBatchSeq: binary.LittleEndian.Uint64(buf[8:]),
		}, nil
	case TypeCatchUp:
		const hdr = 1 + 8 + 8 + 8 + 8 + 4 + 4
		if len(buf) < hdr {
			return nil, fmt.Errorf("wire: catch-up truncated")
		}
		m := &CatchUp{
			OK:            buf[0]&1 != 0,
			Snapshot:      buf[0]&2 != 0,
			Boot:          binary.LittleEndian.Uint64(buf[1:]),
			BootFloor:     binary.LittleEndian.Uint64(buf[9:]),
			InstalledUpTo: binary.LittleEndian.Uint64(buf[17:]),
			NextBatchSeq:  binary.LittleEndian.Uint64(buf[25:]),
			LastActSeq:    binary.LittleEndian.Uint32(buf[33:]),
		}
		n := int(binary.LittleEndian.Uint32(buf[37:]))
		if len(buf) < hdr+8*n {
			return nil, fmt.Errorf("wire: catch-up drop list truncated")
		}
		if n > 0 {
			m.DroppedActs = make([]action.ID, n)
			for i := range m.DroppedActs {
				off := hdr + 8*i
				m.DroppedActs[i] = action.ID{
					Client: action.ClientID(int32(binary.LittleEndian.Uint32(buf[off:]))),
					Seq:    binary.LittleEndian.Uint32(buf[off+4:]),
				}
			}
		}
		ws, _, err := decodeWrites(buf[hdr+8*n:])
		if err != nil {
			return nil, err
		}
		m.Writes = ws
		return m, nil
	case TypeQuarantine:
		if len(buf) < 17 {
			return nil, fmt.Errorf("wire: quarantine truncated")
		}
		return &Quarantine{
			Reason: buf[0],
			Seq:    binary.LittleEndian.Uint64(buf[1:]),
			Detail: binary.LittleEndian.Uint64(buf[9:]),
		}, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
}
