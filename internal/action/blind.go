package action

import (
	"encoding/binary"
	"fmt"
	"math"

	"seve/internal/world"
)

// BlindWrite is the special action a = W(S, v) of Section III-C: "an
// action that unconditionally stores the values v into the object set S".
// The server prepends one to each closure batch (Algorithm 6, last line)
// to seed the client with the authoritative values, as of the server's
// install point, of the objects the client has never seen or whose queued
// writers were all already sent.
//
// By the paper's convention WS(a) = S and RS(a) = S.
type BlindWrite struct {
	id     ID
	writes []world.Write
}

// NewBlindWrite builds a blind write performing the given writes. The id
// should be unique among server-generated actions.
func NewBlindWrite(id ID, writes []world.Write) *BlindWrite {
	return &BlindWrite{id: id, writes: writes}
}

// ID returns the action's identity.
func (b *BlindWrite) ID() ID { return b.id }

// Kind returns KindBlindWrite.
func (b *BlindWrite) Kind() Kind { return KindBlindWrite }

// ReadSet returns S (by convention RS = WS for blind writes).
func (b *BlindWrite) ReadSet() world.IDSet { return b.WriteSet() }

// WriteSet returns S.
func (b *BlindWrite) WriteSet() world.IDSet {
	ids := make([]world.ObjectID, len(b.writes))
	for i, w := range b.writes {
		ids[i] = w.ID
	}
	return world.NewIDSet(ids...)
}

// Writes returns the write records the action will perform.
func (b *BlindWrite) Writes() []world.Write { return b.writes }

// Apply stores the values unconditionally. It never aborts.
func (b *BlindWrite) Apply(tx *world.Tx) bool {
	for _, w := range b.writes {
		tx.Write(w.ID, w.Val)
	}
	return true
}

// MarshalBody encodes the write records: count, then per record the
// object id, attribute count and attributes.
func (b *BlindWrite) MarshalBody() []byte {
	return b.AppendBody(make([]byte, 0, 4+len(b.writes)*16))
}

// AppendBody appends the MarshalBody encoding to buf.
func (b *BlindWrite) AppendBody(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.writes)))
	for _, w := range b.writes {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.ID))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.Val)))
		for _, f := range w.Val {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	return buf
}

// UnmarshalBlindWrite decodes the body produced by MarshalBody, cutting
// the values from slab (nil allocates each on its own).
func UnmarshalBlindWrite(id ID, body []byte, slab *world.Slab) (*BlindWrite, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("blind write body too short: %d bytes", len(body))
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	// Cap the allocation hint by what the body could actually hold (each
	// record is at least 10 bytes): n is untrusted input, and a forged
	// count must not pre-allocate gigabytes before the length checks in
	// the loop reject it.
	capHint := int(n)
	if max := len(body) / 10; capHint > max {
		capHint = max
	}
	writes := make([]world.Write, 0, capHint)
	for i := uint32(0); i < n; i++ {
		if len(body) < 10 {
			return nil, fmt.Errorf("blind write truncated at record %d", i)
		}
		oid := world.ObjectID(binary.LittleEndian.Uint64(body))
		attrs := int(binary.LittleEndian.Uint16(body[8:]))
		body = body[10:]
		if len(body) < attrs*8 {
			return nil, fmt.Errorf("blind write value truncated at record %d", i)
		}
		val := slab.Value(attrs)
		for j := 0; j < attrs; j++ {
			val[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[j*8:]))
		}
		body = body[attrs*8:]
		writes = append(writes, world.Write{ID: oid, Val: val})
	}
	return &BlindWrite{id: id, writes: writes}, nil
}
