package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"seve/internal/action"
	"seve/internal/world"
)

// sampleMsgs returns one instance of every message type, including a
// batch mixing a registered application action with a blind write.
func sampleMsgs() []Msg {
	bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 1},
		[]world.Write{{ID: 5, Val: world.Value{1, 2}}, {ID: 6, Val: nil}})
	ta := &testAct{id: action.ID{Client: 2, Seq: 4}, A: 3.25, B: -1}
	return []Msg{
		&Submit{Env: env(0, 2, ta)},
		&Batch{
			Envs:          []action.Envelope{env(10, action.OriginServer, bw), env(11, 2, ta)},
			Push:          true,
			InstalledUpTo: 9,
			ClientSeq:     4,
			CoversFrom:    2,
		},
		&Completion{Seq: 77, By: 4, Res: action.Result{OK: true,
			Writes: []world.Write{{ID: 1, Val: world.Value{9.25}}}}},
		&Drop{ActID: action.ID{Client: 6, Seq: 3}},
		&Hello{InterestMask: 0b1010},
		&LockGrant{Seq: 12, ActID: action.ID{Client: 1, Seq: 2}},
		&Relay{
			Targets:    []action.ClientID{3, 8},
			TargetSeqs: []uint64{5, 9},
			Inner:      &Batch{Envs: []action.Envelope{env(12, 2, ta)}, Push: true},
		},
		&Welcome{You: 9, Token: 0xfeed, Init: []world.Write{{ID: 1, Val: world.Value{5}}}},
		&Resume{Token: 0xfeed, LastBatchSeq: 41},
		&CatchUp{
			OK:            true,
			Snapshot:      true,
			InstalledUpTo: 88,
			NextBatchSeq:  42,
			LastActSeq:    7,
			DroppedActs:   []action.ID{{Client: 2, Seq: 6}},
			Writes:        []world.Write{{ID: 3, Val: world.Value{1.5, -2}}},
		},
		&Quarantine{Reason: 2, Seq: 31, Detail: 7},
	}
}

// TestAppendMsgMatchesEncode pins the append-style APIs to Encode: the
// same bytes, appended after any prefix, with EncodeTo reusing the
// buffer it is given.
func TestAppendMsgMatchesEncode(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	for _, m := range sampleMsgs() {
		want := Encode(m)
		if got := AppendMsg(append([]byte(nil), prefix...), m); !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%T: AppendMsg diverges from Encode", m)
		}
		buf := make([]byte, 3, 256)
		out := EncodeTo(buf, m)
		if !bytes.Equal(out, want) {
			t.Errorf("%T: EncodeTo diverges from Encode", m)
		}
		if len(want) <= 256 && &out[0] != &buf[:1][0] {
			t.Errorf("%T: EncodeTo did not reuse the supplied buffer", m)
		}
	}
}

// TestFrameMatchesWriteFrame pins the three framing paths — Frame,
// AppendFrame, WriteFrame — to identical bytes.
func TestFrameMatchesWriteFrame(t *testing.T) {
	for _, m := range sampleMsgs() {
		var w bytes.Buffer
		if err := WriteFrame(&w, m); err != nil {
			t.Fatal(err)
		}
		if got := AppendFrame(nil, m); !bytes.Equal(got, w.Bytes()) {
			t.Errorf("%T: AppendFrame diverges from WriteFrame", m)
		}
		f := NewFrame(m)
		if !bytes.Equal(f.Bytes(), w.Bytes()) {
			t.Errorf("%T: Frame diverges from WriteFrame", m)
		}
		if f.Len() != frameHeaderSize+m.WireSize() {
			t.Errorf("%T: frame len %d, want header+WireSize %d",
				m, f.Len(), frameHeaderSize+m.WireSize())
		}
		f.Release()
	}
}

// TestEncodeCacheFanOut is the stream-equivalence proof for encode-once
// fan-out: sibling batches sharing one Envs slice, differing only in the
// per-recipient header, must encode through the cache to exactly the
// bytes the per-recipient encoder produces — while serializing the
// envelope section once.
func TestEncodeCacheFanOut(t *testing.T) {
	bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 2},
		[]world.Write{{ID: 7, Val: world.Value{4}}})
	shared := []action.Envelope{
		env(20, action.OriginServer, bw),
		env(21, 1, &testAct{id: action.ID{Client: 1, Seq: 9}, A: 0.5}),
		env(22, 3, &testAct{id: action.ID{Client: 3, Seq: 2}, B: 8}),
	}
	const recipients = 16
	var cache EncodeCache
	defer cache.Reset()
	for i := 0; i < recipients; i++ {
		sib := &Batch{
			Envs:          shared,
			Push:          i%2 == 0,
			InstalledUpTo: uint64(30 + i),
			ClientSeq:     uint64(i + 1),
		}
		want := append([]byte{0, 0, 0, 0, byte(TypeBatch)}, Encode(sib)...)
		putLen(want)
		f := NewFrameCached(&cache, sib)
		if !bytes.Equal(f.Bytes(), want) {
			t.Fatalf("recipient %d: cached frame diverges from per-recipient encoding", i)
		}
		f.Release()
	}
	if cache.Hits() != recipients-1 {
		t.Fatalf("cache hits = %d, want %d (envelope section encoded once)",
			cache.Hits(), recipients-1)
	}

	// Relay forwards share the inner Envs too.
	r := &Relay{Targets: []action.ClientID{1, 2}, TargetSeqs: []uint64{7, 8},
		Inner: &Batch{Envs: shared, Push: true, ClientSeq: 7}}
	want := Encode(r)
	f := NewFrameCached(&cache, r)
	if !bytes.Equal(f.Bytes()[frameHeaderSize:], want) {
		t.Fatal("cached relay diverges from Encode")
	}
	f.Release()
	if cache.Hits() != recipients {
		t.Fatalf("relay did not hit the cached envelope section (hits=%d)", cache.Hits())
	}

	// A different Envs slice must miss and re-encode, not serve stale bytes.
	other := []action.Envelope{env(40, 1, &testAct{id: action.ID{Client: 1, Seq: 10}})}
	ob := &Batch{Envs: other, ClientSeq: 9}
	f = NewFrameCached(&cache, ob)
	if !bytes.Equal(f.Bytes()[frameHeaderSize:], Encode(ob)) {
		t.Fatal("cache served stale envelope section for a different batch")
	}
	f.Release()
}

// TestCoalesceFrames proves the in-place merge primitive of the
// superseding writer queue: coalescing two contiguous batch frames
// yields a frame whose decoded content is exactly the concatenation of
// the inputs, carrying the covered-range metadata, and every frame —
// inputs and output — returns cleanly to the pool.
func TestCoalesceFrames(t *testing.T) {
	ta := &testAct{id: action.ID{Client: 2, Seq: 1}, A: 1}
	tb := &testAct{id: action.ID{Client: 3, Seq: 2}, B: 7}
	mkBatch := func(seq, covers, installed uint64, push bool, envs ...action.Envelope) *Frame {
		return NewFrame(&Batch{Envs: envs, Push: push, InstalledUpTo: installed,
			ClientSeq: seq, CoversFrom: covers})
	}
	a := mkBatch(5, 0, 10, true, env(30, 2, ta))
	b := mkBatch(6, 0, 12, true, env(31, 3, tb))
	m, ok := CoalesceFrames(a, b)
	if !ok {
		t.Fatal("contiguous batches did not coalesce")
	}
	a.Release()
	b.Release()
	got, err := Decode(TypeBatch, m.Bytes()[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	mb := got.(*Batch)
	if mb.ClientSeq != 6 || mb.CoversFrom != 5 || mb.InstalledUpTo != 12 || !mb.Push {
		t.Fatalf("merged header = seq %d covers %d installed %d push %v",
			mb.ClientSeq, mb.CoversFrom, mb.InstalledUpTo, mb.Push)
	}
	if len(mb.Envs) != 2 || mb.Envs[0].Seq != 30 || mb.Envs[1].Seq != 31 {
		t.Fatalf("merged envs = %+v", mb.Envs)
	}

	// A merged frame keeps merging: appending seq 7 extends the range.
	c := mkBatch(7, 0, 12, true, env(32, 2, ta))
	m2, ok := CoalesceFrames(m, c)
	if !ok {
		t.Fatal("merged frame did not coalesce with its successor")
	}
	m.Release()
	c.Release()
	got2, err := Decode(TypeBatch, m2.Bytes()[frameHeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	m2b := got2.(*Batch)
	if m2b.ClientSeq != 7 || m2b.CoversFrom != 5 || len(m2b.Envs) != 3 {
		t.Fatalf("chained merge = seq %d covers %d envs %d",
			m2b.ClientSeq, m2b.CoversFrom, len(m2b.Envs))
	}
	m2.Release()
}

// TestCoalesceFramesRefusals pins every gate that must refuse a merge:
// wrong type, mismatched push flags, unsequenced batches, and sequence
// gaps all return (nil, false) without touching the inputs.
func TestCoalesceFramesRefusals(t *testing.T) {
	ta := &testAct{id: action.ID{Client: 2, Seq: 1}}
	batch := func(seq uint64, push bool) *Frame {
		return NewFrame(&Batch{Envs: []action.Envelope{env(40, 2, ta)},
			Push: push, ClientSeq: seq})
	}
	cases := []struct {
		name string
		mk   func() (*Frame, *Frame)
	}{
		{"non-batch first", func() (*Frame, *Frame) { return NewFrame(&Hello{}), batch(2, true) }},
		{"non-batch second", func() (*Frame, *Frame) {
			return batch(1, true), NewFrame(&Drop{ActID: action.ID{Client: 1, Seq: 1}})
		}},
		{"push mismatch", func() (*Frame, *Frame) { return batch(1, true), batch(2, false) }},
		{"unsequenced first", func() (*Frame, *Frame) { return batch(0, true), batch(2, true) }},
		{"unsequenced second", func() (*Frame, *Frame) { return batch(1, true), batch(0, true) }},
		{"gap", func() (*Frame, *Frame) { return batch(1, true), batch(3, true) }},
		{"reversed", func() (*Frame, *Frame) { return batch(2, true), batch(1, true) }},
	}
	for _, tc := range cases {
		fa, fb := tc.mk()
		before := append([]byte(nil), fa.Bytes()...)
		if f, ok := CoalesceFrames(fa, fb); ok || f != nil {
			t.Errorf("%s: merged, want refusal", tc.name)
		}
		if !bytes.Equal(fa.Bytes(), before) {
			t.Errorf("%s: refusal mutated input", tc.name)
		}
		fa.Release()
		fb.Release()
	}
}

func putLen(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeaderSize))
}

// TestFrameRefcount exercises the sharing contract: the frame's bytes
// stay valid until the last holder releases, and the final release
// recycles the frame.
func TestFrameRefcount(t *testing.T) {
	m := &Drop{ActID: action.ID{Client: 1, Seq: 1}}
	f := NewFrame(m)
	want := append([]byte(nil), f.Bytes()...)
	f.Retain()
	f.Release()
	if !bytes.Equal(f.Bytes(), want) {
		t.Fatal("frame bytes changed while a reference was held")
	}
	f.Release()

	f2 := NewFrame(&Hello{InterestMask: 1})
	if !bytes.Equal(f2.Bytes(), append([]byte{8, 0, 0, 0, byte(TypeHello)},
		Encode(&Hello{InterestMask: 1})...)) {
		t.Fatal("recycled frame encoded wrong bytes")
	}
	f2.Release()
}

func TestFrameOverReleasePanics(t *testing.T) {
	f := NewFrame(&Hello{})
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	f.Release()
}

// TestGetPutBufRecycles checks the pool hands back usable buffers and
// drops oversized ones.
func TestGetPutBufRecycles(t *testing.T) {
	b := GetBuf(64)
	if len(b) != 0 || cap(b) < 64 {
		t.Fatalf("GetBuf(64) = len %d cap %d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	huge := GetBuf(maxPooledCap + 1)
	PutBuf(huge) // must not pin; just exercising the size gate
	b2 := GetBuf(16)
	if len(b2) != 0 {
		t.Fatalf("pooled buffer returned dirty: len %d", len(b2))
	}
	PutBuf(b2)
}

// TestGetPutBufAllocatesNothing: a warm GetBuf/PutBuf round recycles
// the buffer and the box it travels in.
func TestGetPutBufAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	PutBuf(GetBuf(64))
	if allocs := testing.AllocsPerRun(100, func() { PutBuf(GetBuf(64)) }); allocs != 0 {
		t.Fatalf("a warm GetBuf/PutBuf round allocated %.1f times, want 0", allocs)
	}
}

// TestPutBufTwicePanics locks in the double-put diagnostic: returning
// the same buffer twice in a row must panic instead of letting two
// goroutines share one pooled backing array. The put→get→put round trip
// beforehand proves legitimate reuse does not trip the check.
func TestPutBufTwicePanics(t *testing.T) {
	b := GetBuf(16)
	b = append(b, 1)
	PutBuf(b)
	b = GetBuf(16) // hands the same buffer back and clears the sentinel
	PutBuf(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double PutBuf did not panic")
		}
	}()
	PutBuf(b)
}

// TestRetainAfterReleasePanics locks in the freed-frame sentinel:
// retaining a frame the pool already owns must panic, not resurrect it.
func TestRetainAfterReleasePanics(t *testing.T) {
	f := NewFrame(&Hello{})
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final release did not panic")
		}
	}()
	f.Retain()
}

// TestFrameBytesAfterReleasePanics locks in the use-after-release
// sentinel: reading a frame the pool owns panics instead of returning
// bytes the next owner may be overwriting.
func TestFrameBytesAfterReleasePanics(t *testing.T) {
	for name, read := range map[string]func(*Frame){
		"Bytes": func(f *Frame) { f.Bytes() },
		"Len":   func(f *Frame) { f.Len() },
	} {
		f := NewFrame(&Hello{})
		f.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after the final release did not panic", name)
				}
			}()
			read(f)
		}()
	}
}

// TestOutstandingCount pins what the pool's balance counts: buffers
// handed out by GetBuf until PutBuf (the oversize drop included), and
// frames until their final Release (a coalesced frame is a new one). A
// frame's own backing buffer is not a counted buffer.
func TestOutstandingCount(t *testing.T) {
	want := func(step string, bufs, frames int64) {
		t.Helper()
		if b, f := Outstanding(); b != bufs || f != frames {
			t.Fatalf("%s: outstanding = %d buffers, %d frames; want %d, %d", step, b, f, bufs, frames)
		}
	}
	b0, f0 := Outstanding()
	buf, big := GetBuf(16), GetBuf(maxPooledCap+1)
	want("two GetBufs", b0+2, f0)
	PutBuf(buf)
	PutBuf(big)
	want("PutBuf, pooled and dropped", b0, f0)

	a := NewFrame(&Batch{Push: true, ClientSeq: 1})
	b := NewFrame(&Batch{Push: true, ClientSeq: 2})
	want("two frames", b0, f0+2)
	m, ok := CoalesceFrames(a, b)
	if !ok {
		t.Fatal("contiguous batches did not coalesce")
	}
	m.Retain()
	want("coalesced", b0, f0+3)
	a.Release()
	b.Release()
	m.Release()
	want("inputs released, merged retained", b0, f0+1)
	m.Release()
	want("all released", b0, f0)
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestWriteFrameErrorReturnsBuffer: a frame write that fails still
// returns its staging buffer to the pool.
func TestWriteFrameErrorReturnsBuffer(t *testing.T) {
	bufs, frames := Outstanding()
	if err := WriteFrame(failingWriter{}, &Hello{}); err == nil {
		t.Fatal("WriteFrame to a failing writer reported no error")
	}
	if b, f := Outstanding(); b != bufs || f != frames {
		t.Fatalf("outstanding after a failed WriteFrame = %d buffers, %d frames; want %d, %d", b, f, bufs, frames)
	}
}
