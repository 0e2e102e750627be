package wire

import (
	"bytes"
	"testing"

	"seve/internal/action"
)

// FuzzDecode throws arbitrary bytes at Decode for every message type and
// checks the codec's two safety properties: no panics or unbounded
// allocations on hostile input, and canonicalization — whatever Decode
// accepts must re-encode to a payload that round-trips to the same
// bytes (Encode∘Decode is a fixpoint). The seed corpus covers all
// registered MsgTypes via the encoder itself.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMsgs() {
		f.Add(byte(m.Type()), Encode(m))
	}
	// A batch of every kind, interleaved: the kinds that cut from the
	// arena and the id array between blind writes that cut values.
	mixed := crowdBatch(3)
	mixed.Envs = append(mixed.Envs, env(5, 2, &testAct{id: action.ID{Client: 2, Seq: 9}, A: 1}), mixed.Envs[0],
		mixed.Envs[1], env(6, 3, &testAct{id: action.ID{Client: 3, Seq: 1}, B: -1}))
	f.Add(byte(TypeBatch), Encode(mixed))
	// A few hostile shapes: huge counts with tiny bodies.
	f.Add(byte(TypeBatch), []byte{0, 9, 9, 9, 9, 9, 9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add(byte(TypeBatch), []byte{
		1,                      // push flag
		9, 9, 9, 9, 9, 9, 9, 9, // installedUpTo
		4, 0, 0, 0, 0, 0, 0, 0, // clientSeq
		2, 0, 0, 0, 0, 0, 0, 0, // coversFrom (coalesced range start)
		255, 255, 255, 255, // huge count, tiny body
	})
	f.Add(byte(TypeCompletion), []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 255, 255, 255, 255})
	f.Add(byte(TypeWelcome), []byte{1, 0, 0, 0, 255, 255, 255, 255})
	f.Add(byte(TypeRelay), []byte{255, 255, 255, 255})
	// Adversarial resume/catch-up: forged tokens are structurally valid
	// (session lookup is the server's problem, not the codec's), forged
	// drop counts must be rejected before allocation.
	f.Add(byte(TypeResume), []byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(byte(TypeCatchUp), []byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 255, 255, 255, 255})
	// Hostile quarantine verdicts: truncated at every boundary of the
	// fixed 17-byte layout, and an unknown reason code (decodes fine —
	// reason semantics live in internal/integrity, not the codec).
	f.Add(byte(TypeQuarantine), []byte{})
	f.Add(byte(TypeQuarantine), []byte{3})
	f.Add(byte(TypeQuarantine), []byte{3, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(byte(TypeQuarantine), []byte{3, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0})
	f.Add(byte(TypeQuarantine), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, typ byte, data []byte) {
		m, err := Decode(MsgType(typ), data)
		if err != nil {
			return
		}
		enc := Encode(m)
		m2, err := Decode(MsgType(typ), enc)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v", err)
		}
		enc2 := Encode(m2)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("Encode(Decode(b)) not a fixpoint:\n first %x\nsecond %x", enc, enc2)
		}
		if sz := m2.WireSize(); sz != len(enc2) {
			t.Fatalf("WireSize %d != encoded size %d", sz, len(enc2))
		}
	})
}
