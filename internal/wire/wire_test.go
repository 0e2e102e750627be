package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"seve/internal/action"
	"seve/internal/world"
)

// testAct is a registered test action carrying two float parameters.
type testAct struct {
	id   action.ID
	A, B float64
}

const kindTest action.Kind = 7

func (a *testAct) ID() action.ID           { return a.id }
func (a *testAct) Kind() action.Kind       { return kindTest }
func (a *testAct) ReadSet() world.IDSet    { return world.NewIDSet(1) }
func (a *testAct) WriteSet() world.IDSet   { return world.NewIDSet(1) }
func (a *testAct) Apply(tx *world.Tx) bool { return true }

func (a *testAct) MarshalBody() []byte {
	// Raw float bits: exact for every value, so Encode∘Decode is a
	// fixpoint under fuzzing (a scaled-integer codec is not).
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a.A))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(a.B))
	return buf
}

// setAct is a registered test action shaped like a move: its decoder
// cuts the struct from the batch's arena and its id set from the id
// array.
type setAct struct {
	id  action.ID
	ids world.IDSet
}

const kindSet action.Kind = 8

func (a *setAct) ID() action.ID           { return a.id }
func (a *setAct) Kind() action.Kind       { return kindSet }
func (a *setAct) ReadSet() world.IDSet    { return a.ids }
func (a *setAct) WriteSet() world.IDSet   { return a.ids }
func (a *setAct) Apply(tx *world.Tx) bool { return true }

func (a *setAct) MarshalBody() []byte {
	buf := binary.LittleEndian.AppendUint16(nil, uint16(len(a.ids)))
	for _, id := range a.ids {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

func init() {
	RegisterKind(kindSet, func(id action.ID, body []byte, slab *world.Slab) (action.Action, error) {
		if len(body) < 2 || len(body) < 2+8*int(binary.LittleEndian.Uint16(body)) {
			return nil, fmt.Errorf("set action body truncated: %d bytes", len(body))
		}
		a := world.Obj[setAct](slab)
		a.id = id
		a.ids = slab.IDs(int(binary.LittleEndian.Uint16(body)))
		for i := range a.ids {
			a.ids[i] = world.ObjectID(binary.LittleEndian.Uint64(body[2+8*i:]))
		}
		return a, nil
	})
	RegisterKind(kindTest, func(id action.ID, body []byte, slab *world.Slab) (action.Action, error) {
		if len(body) < 16 {
			return nil, fmt.Errorf("test action body truncated: %d bytes", len(body))
		}
		a := world.Obj[testAct](slab)
		a.id = id
		a.A = math.Float64frombits(binary.LittleEndian.Uint64(body))
		a.B = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		return a, nil
	})
}

func env(seq uint64, origin action.ClientID, a action.Action) action.Envelope {
	return action.Envelope{Seq: seq, Origin: origin, Act: a}
}

func TestSubmitRoundTrip(t *testing.T) {
	a := &testAct{id: action.ID{Client: 3, Seq: 9}, A: 1.5, B: -2}
	m := &Submit{Env: env(0, 3, a)}
	buf := Encode(m)
	if len(buf) != m.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), m.WireSize())
	}
	got, err := Decode(TypeSubmit, buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*Submit)
	ga := g.Env.Act.(*testAct)
	if ga.id != a.id || ga.A != 1.5 || ga.B != -2 {
		t.Fatalf("round trip = %+v", ga)
	}
	if g.Env.Origin != 3 {
		t.Fatalf("origin = %d", g.Env.Origin)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 1},
		[]world.Write{{ID: 5, Val: world.Value{1, 2}}})
	m := &Batch{
		Envs: []action.Envelope{
			env(10, action.OriginServer, bw),
			env(11, 2, &testAct{id: action.ID{Client: 2, Seq: 4}, A: 3}),
		},
		Push:          true,
		InstalledUpTo: 9,
	}
	buf := Encode(m)
	if len(buf) != m.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(buf), m.WireSize())
	}
	got, err := Decode(TypeBatch, buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*Batch)
	if !g.Push || g.InstalledUpTo != 9 || len(g.Envs) != 2 {
		t.Fatalf("batch meta = %+v", g)
	}
	if g.Envs[0].Seq != 10 || g.Envs[1].Seq != 11 {
		t.Fatalf("seqs = %d, %d", g.Envs[0].Seq, g.Envs[1].Seq)
	}
	gbw, ok := g.Envs[0].Act.(*action.BlindWrite)
	if !ok {
		t.Fatalf("first env decoded as %T", g.Envs[0].Act)
	}
	if w := gbw.Writes(); len(w) != 1 || w[0].ID != 5 || !w[0].Val.Equal(world.Value{1, 2}) {
		t.Fatalf("blind write = %v", w)
	}
}

func TestCompletionRoundTrip(t *testing.T) {
	m := &Completion{
		Seq: 77,
		By:  4,
		Res: action.Result{OK: true, Writes: []world.Write{
			{ID: 1, Val: world.Value{9.25}},
			{ID: 2, Val: nil},
		}},
	}
	buf := Encode(m)
	if len(buf) != m.WireSize() {
		t.Fatalf("encoded %d, WireSize %d", len(buf), m.WireSize())
	}
	got, err := Decode(TypeCompletion, buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*Completion)
	if g.Seq != 77 || g.By != 4 || !g.Res.OK {
		t.Fatalf("completion = %+v", g)
	}
	if len(g.Res.Writes) != 2 || g.Res.Writes[0].Val[0] != 9.25 {
		t.Fatalf("writes = %v", g.Res.Writes)
	}
	// Aborted result.
	m2 := &Completion{Seq: 78, By: 4, Res: action.Result{OK: false}}
	g2, err := Decode(TypeCompletion, Encode(m2))
	if err != nil {
		t.Fatal(err)
	}
	if g2.(*Completion).Res.OK {
		t.Fatal("abort decoded as commit")
	}
}

func TestDropHelloWelcomeRoundTrip(t *testing.T) {
	d := &Drop{ActID: action.ID{Client: 6, Seq: 3}}
	gd, err := Decode(TypeDrop, Encode(d))
	if err != nil {
		t.Fatal(err)
	}
	if gd.(*Drop).ActID != d.ActID {
		t.Fatalf("drop = %+v", gd)
	}

	h := &Hello{InterestMask: 0b1010}
	gh, err := Decode(TypeHello, Encode(h))
	if err != nil {
		t.Fatal(err)
	}
	if gh.(*Hello).InterestMask != h.InterestMask {
		t.Fatalf("hello = %+v", gh)
	}

	w := &Welcome{You: 9, Init: []world.Write{{ID: 1, Val: world.Value{5}}}}
	if len(Encode(w)) != w.WireSize() {
		t.Fatal("welcome WireSize mismatch")
	}
	gw, err := Decode(TypeWelcome, Encode(w))
	if err != nil {
		t.Fatal(err)
	}
	if gw.(*Welcome).You != 9 || len(gw.(*Welcome).Init) != 1 {
		t.Fatalf("welcome = %+v", gw)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		t   MsgType
		buf []byte
	}{
		{TypeSubmit, []byte{1, 2, 3}},
		{TypeBatch, []byte{0}},
		{TypeCompletion, []byte{0}},
		{TypeDrop, []byte{1}},
		{TypeHello, []byte{1}},
		{TypeWelcome, []byte{1}},
		{MsgType(99), []byte{}},
	}
	for _, c := range cases {
		if _, err := Decode(c.t, c.buf); err == nil {
			t.Errorf("type %d: truncated buffer accepted", c.t)
		}
	}
	// Unknown action kind inside a submit.
	a := &testAct{id: action.ID{Client: 1, Seq: 1}}
	buf := Encode(&Submit{Env: env(0, 1, a)})
	binary.LittleEndian.PutUint16(buf[20:], 999) // corrupt kind
	if _, err := Decode(TypeSubmit, buf); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDuplicateKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterKind did not panic")
		}
	}()
	RegisterKind(kindTest, nil)
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Msg{
		&Submit{Env: env(0, 1, &testAct{id: action.ID{Client: 1, Seq: 1}, A: 7})},
		&Drop{ActID: action.ID{Client: 1, Seq: 1}},
		&Completion{Seq: 5, By: 1, Res: action.Result{OK: true}},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("frame %d type = %d, want %d", i, got.Type(), want.Type())
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrameSize+1)
	hdr[4] = byte(TypeDrop)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Drop{ActID: action.ID{Client: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil || err == io.EOF {
		t.Fatalf("truncated payload: err = %v", err)
	}
}
