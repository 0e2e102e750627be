package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"seve/internal/action"
	"seve/internal/world"
)

func TestMessageTypesAndSizes(t *testing.T) {
	msgs := []Msg{
		&Submit{Env: action.Envelope{Origin: 1, Act: &testAct{id: action.ID{Client: 1, Seq: 1}}}},
		&Batch{},
		&Completion{},
		&Drop{},
		&Hello{},
		&Welcome{},
		&LockGrant{},
		&Resume{},
		&CatchUp{},
	}
	want := []MsgType{TypeSubmit, TypeBatch, TypeCompletion, TypeDrop, TypeHello, TypeWelcome, TypeLockGrant, TypeResume, TypeCatchUp}
	for i, m := range msgs {
		if m.Type() != want[i] {
			t.Errorf("msg %d Type = %d, want %d", i, m.Type(), want[i])
		}
		if got := len(Encode(m)); got != m.WireSize() {
			t.Errorf("%T: encoded %d bytes, WireSize %d", m, got, m.WireSize())
		}
	}
}

func TestLockGrantRoundTrip(t *testing.T) {
	m := &LockGrant{Seq: 77, ActID: action.ID{Client: 3, Seq: 9}}
	got, err := Decode(TypeLockGrant, Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*LockGrant)
	if g.Seq != 77 || g.ActID != m.ActID {
		t.Fatalf("round trip = %+v", g)
	}
	if _, err := Decode(TypeLockGrant, []byte{1, 2}); err == nil {
		t.Fatal("truncated lock grant accepted")
	}
}

// TestCompletionRoundTripProperty: random results survive the codec.
func TestCompletionRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		res := action.Result{OK: rng.Intn(2) == 0}
		for i := 0; i < rng.Intn(6); i++ {
			val := make(world.Value, rng.Intn(5))
			for j := range val {
				val[j] = rng.NormFloat64() * 1e6
			}
			res.Writes = append(res.Writes, world.Write{
				ID:  world.ObjectID(rng.Uint64()),
				Val: val,
			})
		}
		m := &Completion{Seq: rng.Uint64(), By: action.ClientID(rng.Int31()), Res: res}
		buf := Encode(m)
		if len(buf) != m.WireSize() {
			return false
		}
		got, err := Decode(TypeCompletion, buf)
		if err != nil {
			return false
		}
		g := got.(*Completion)
		return g.Seq == m.Seq && g.By == m.By && g.Res.Equal(m.Res)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchRoundTripProperty: random blind-write batches survive the
// codec, including push flags and installed markers.
func TestBatchRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Batch{Push: rng.Intn(2) == 0, InstalledUpTo: rng.Uint64()}
		for i := 0; i < rng.Intn(5); i++ {
			var writes []world.Write
			for j := 0; j < 1+rng.Intn(4); j++ {
				writes = append(writes, world.Write{
					ID:  world.ObjectID(rng.Uint64()),
					Val: world.Value{rng.Float64(), rng.Float64()},
				})
			}
			bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: rng.Uint32()}, writes)
			m.Envs = append(m.Envs, action.Envelope{
				Seq:    rng.Uint64(),
				Origin: action.OriginServer,
				Act:    bw,
			})
		}
		buf := Encode(m)
		if len(buf) != m.WireSize() {
			return false
		}
		got, err := Decode(TypeBatch, buf)
		if err != nil {
			return false
		}
		g := got.(*Batch)
		if g.Push != m.Push || g.InstalledUpTo != m.InstalledUpTo || len(g.Envs) != len(m.Envs) {
			return false
		}
		for i := range g.Envs {
			if g.Envs[i].Seq != m.Envs[i].Seq {
				return false
			}
			gw := g.Envs[i].Act.(*action.BlindWrite).Writes()
			mw := m.Envs[i].Act.(*action.BlindWrite).Writes()
			if len(gw) != len(mw) {
				return false
			}
			for j := range gw {
				if gw[j].ID != mw[j].ID || !gw[j].Val.Equal(mw[j].Val) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails after n bytes, exercising WriteFrame's error paths.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errShort
	}
	take := len(p)
	if take > w.n {
		take = w.n
	}
	w.n -= take
	if take < len(p) {
		return take, errShort
	}
	return take, nil
}

type shortErr struct{}

func (shortErr) Error() string { return "short write" }

var errShort = shortErr{}

func TestWriteFrameErrors(t *testing.T) {
	m := &Drop{ActID: action.ID{Client: 1, Seq: 1}}
	if err := WriteFrame(&errWriter{n: 2}, m); err == nil {
		t.Fatal("header write error not surfaced")
	}
	if err := WriteFrame(&errWriter{n: 6}, m); err == nil {
		t.Fatal("payload write error not surfaced")
	}
}

func TestRelayRoundTrip(t *testing.T) {
	bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 5},
		[]world.Write{{ID: 7, Val: world.Value{1}}})
	m := &Relay{
		Targets:    []action.ClientID{3, 9, 12},
		TargetSeqs: []uint64{100, 200, 300},
		Inner: &Batch{
			Envs:          []action.Envelope{{Seq: 42, Origin: action.OriginServer, Act: bw}},
			Push:          true,
			InstalledUpTo: 41,
			ClientSeq:     100,
		},
	}
	buf := Encode(m)
	if len(buf) != m.WireSize() {
		t.Fatalf("encoded %d, WireSize %d", len(buf), m.WireSize())
	}
	got, err := Decode(TypeRelay, buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*Relay)
	if len(g.Targets) != 3 || g.Targets[1] != 9 || g.TargetSeqs[2] != 300 {
		t.Fatalf("targets = %v seqs = %v", g.Targets, g.TargetSeqs)
	}
	if !g.Inner.Push || g.Inner.InstalledUpTo != 41 || g.Inner.ClientSeq != 100 {
		t.Fatalf("inner = %+v", g.Inner)
	}
	if len(g.Inner.Envs) != 1 || g.Inner.Envs[0].Seq != 42 {
		t.Fatalf("inner envs = %+v", g.Inner.Envs)
	}
}

func TestRelayDecodeErrors(t *testing.T) {
	if _, err := Decode(TypeRelay, []byte{1}); err == nil {
		t.Fatal("short relay accepted")
	}
	// Claims 5 targets but provides none.
	hdr := binary.LittleEndian.AppendUint32(nil, 5)
	if _, err := Decode(TypeRelay, hdr); err == nil {
		t.Fatal("truncated relay targets accepted")
	}
}

func TestResumeRoundTrip(t *testing.T) {
	m := &Resume{Token: 0xdeadbeefcafe, LastBatchSeq: 99}
	buf := Encode(m)
	if len(buf) != m.WireSize() {
		t.Fatalf("encoded %d, WireSize %d", len(buf), m.WireSize())
	}
	got, err := Decode(TypeResume, buf)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.(*Resume); *g != *m {
		t.Fatalf("round trip = %+v", g)
	}
	if _, err := Decode(TypeResume, buf[:15]); err == nil {
		t.Fatal("truncated resume accepted")
	}
}

func TestCatchUpRoundTrip(t *testing.T) {
	m := &CatchUp{
		OK:            true,
		Snapshot:      true,
		Boot:          3,
		BootFloor:     101,
		InstalledUpTo: 123,
		NextBatchSeq:  7,
		LastActSeq:    19,
		DroppedActs:   []action.ID{{Client: 3, Seq: 17}, {Client: 3, Seq: 18}},
		Writes: []world.Write{
			{ID: 1, Val: world.Value{2.5}},
			{ID: 9, Val: nil},
		},
	}
	buf := Encode(m)
	if len(buf) != m.WireSize() {
		t.Fatalf("encoded %d, WireSize %d", len(buf), m.WireSize())
	}
	got, err := Decode(TypeCatchUp, buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*CatchUp)
	if !g.OK || !g.Snapshot || g.Boot != 3 || g.BootFloor != 101 || g.InstalledUpTo != 123 || g.NextBatchSeq != 7 || g.LastActSeq != 19 {
		t.Fatalf("round trip header = %+v", g)
	}
	if len(g.DroppedActs) != 2 || g.DroppedActs[1] != (action.ID{Client: 3, Seq: 18}) {
		t.Fatalf("dropped acts = %v", g.DroppedActs)
	}
	if len(g.Writes) != 2 || g.Writes[0].ID != 1 || !g.Writes[0].Val.Equal(world.Value{2.5}) {
		t.Fatalf("writes = %v", g.Writes)
	}
	// A suffix-mode verdict with no payload also survives.
	s := &CatchUp{OK: true, InstalledUpTo: 4, LastActSeq: 2}
	got, err = Decode(TypeCatchUp, Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	g = got.(*CatchUp)
	if !g.OK || g.Snapshot || g.InstalledUpTo != 4 || len(g.DroppedActs) != 0 || len(g.Writes) != 0 {
		t.Fatalf("suffix round trip = %+v", g)
	}
}

func TestCatchUpDecodeHostile(t *testing.T) {
	// Claims 4 billion dropped actions with an 8-byte body: the length
	// check must reject it before allocating.
	hostile := append([]byte{1}, make([]byte, 20)...)
	hostile = binary.LittleEndian.AppendUint32(hostile[:21], 0xffffffff)
	if _, err := Decode(TypeCatchUp, hostile); err == nil {
		t.Fatal("forged drop count accepted")
	}
	if _, err := Decode(TypeCatchUp, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated catch-up accepted")
	}
}

func TestWelcomeTokenSurvives(t *testing.T) {
	m := &Welcome{You: 4, Token: 0xabc123, Init: []world.Write{{ID: 2, Val: world.Value{7}}}}
	got, err := Decode(TypeWelcome, Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*Welcome)
	if g.You != 4 || g.Token != 0xabc123 || len(g.Init) != 1 {
		t.Fatalf("round trip = %+v", g)
	}
}

func TestBatchClientSeqSurvives(t *testing.T) {
	m := &Batch{ClientSeq: 77, InstalledUpTo: 3, CoversFrom: 70}
	got, err := Decode(TypeBatch, Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if b := got.(*Batch); b.ClientSeq != 77 || b.CoversFrom != 70 {
		t.Fatalf("ClientSeq = %d, CoversFrom = %d", b.ClientSeq, b.CoversFrom)
	}
}

// TestBatchDecodeSizesFromCount: Envs is allocated once, from the count;
// a forged count sizes it no further than the buffer could bear out and
// is then rejected by the envelope it cannot supply.
func TestBatchDecodeSizesFromCount(t *testing.T) {
	b := &Batch{ClientSeq: 1}
	for i := 0; i < 37; i++ {
		b.Envs = append(b.Envs, env(uint64(i+1), 2, &testAct{id: action.ID{Client: 2, Seq: uint32(i + 1)}, A: float64(i)}))
	}
	m, err := Decode(TypeBatch, Encode(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*Batch).Envs; len(got) != 37 || cap(got) != 37 {
		t.Fatalf("decoded Envs len %d cap %d, want 37 and 37: grown, not sized", len(got), cap(got))
	}
	if m, err := Decode(TypeBatch, Encode(&Batch{ClientSeq: 2})); err != nil || m.(*Batch).Envs != nil {
		t.Fatalf("empty batch decoded to %+v, %v", m, err)
	}

	forged := Encode(b)
	binary.LittleEndian.PutUint32(forged[25:], 0xffffffff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Decode(TypeBatch, forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged envelope count accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("a forged count allocated %d bytes for a %d-byte frame", grew, len(forged))
	}

	// Forged body lengths: each envelope in turn claims nothing, more than
	// the frame holds, or the whole rest of the frame. The slab is sized
	// from these lengths before any body is decoded, so none may grow it
	// past the frame: Envs and the arena hold at most one struct per
	// 26-byte header, and the id and value arrays together at most the
	// frame's bytes.
	frame := Encode(crowdBatch(64))
	for off := 29; off < len(frame); off += envelopeHdr + int(binary.LittleEndian.Uint32(frame[off+22:])) {
		for _, blen := range []uint32{0, 0xffffffff, uint32(len(frame) - off - envelopeHdr)} {
			forged := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(forged[off+22:], blen)
			runtime.ReadMemStats(&before)
			Decode(TypeBatch, forged)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(forged)+1<<10) {
				t.Fatalf("envelope at %d claiming %d body bytes: decoding allocated %d bytes for a %d-byte frame", off, blen, grew, len(forged))
			}
		}
	}
}

// crowdBatch is the shape of a crowd's closure batch: one blind write
// seeding eight avatars, then k moves, each reading six of them.
func crowdBatch(k int) *Batch {
	ws := make([]world.Write, 8)
	for j := range ws {
		ws[j] = world.Write{ID: world.ObjectID(j + 1), Val: world.Value{float64(j), 1, 0, 1}}
	}
	b := &Batch{ClientSeq: 1, Envs: []action.Envelope{
		env(1, action.OriginServer, action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 1}, ws))}}
	for i := 0; i < k; i++ {
		ids := world.NewIDSet(world.ObjectID(i%8+1), 2, 3, 4, 5, 6)
		b.Envs = append(b.Envs, env(uint64(i+2), 2, &setAct{id: action.ID{Client: 2, Seq: uint32(i + 1)}, ids: ids}))
	}
	return b
}

// TestBatchDecodeSizesEachArray: each slab array is sized by the bodies
// that cut from it, so a batch of moves reading a hundred avatars each
// and one small blind write allocates little more than its frame. Sizing
// the value array by the moves' bodies too would double that.
func TestBatchDecodeSizesEachArray(t *testing.T) {
	b := crowdBatch(64)
	for i := range b.Envs[1:] {
		ids := make([]world.ObjectID, 100)
		for j := range ids {
			ids[j] = world.ObjectID(j + 1)
		}
		b.Envs[i+1].Act.(*setAct).ids = world.AsIDSet(ids)
	}
	buf := Encode(b)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(TypeBatch, buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(buf))*3/2 {
		t.Fatalf("decoding a %d-byte batch allocated %d bytes", len(buf), per)
	}
}

// TestBatchDecodeAllocatesPerBatch: a crowd-shaped batch decodes in a
// fixed number of allocations whatever its move count — the message,
// Envs, the slab, its id and value arrays, the blind write and its write
// records, and the arena's box and array. A batch with a single move
// pays for that move instead of an arena, which is exactly what the same
// batch cost before moves were cut from an arena.
func TestBatchDecodeAllocatesPerBatch(t *testing.T) {
	const perBatch = 9
	for _, k := range []int{1, 2, 8, 64} {
		b := crowdBatch(k)
		buf := Encode(b)
		m, err := Decode(TypeBatch, buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := Encode(m); !bytes.Equal(got, buf) {
			t.Fatalf("k=%d: the decoded batch re-encodes differently", k)
		}
		for i, e := range m.(*Batch).Envs[1:] {
			if got := e.Act.(*setAct); got.id != b.Envs[i+1].Act.ID() || !got.ids.Equal(b.Envs[i+1].Act.ReadSet()) {
				t.Fatalf("k=%d: move %d decoded to %+v", k, i, got)
			}
		}
		want := float64(perBatch)
		if k == 1 {
			want--
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := Decode(TypeBatch, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Fatalf("a blind write and %d moves decoded in %.0f allocations, want %.0f", k, allocs, want)
		}
	}
}

// TestBatchDecodeCutsFromOneSlab: the values of a batch's blind writes
// come out of one array per batch, not one allocation per value, and
// decode to what was sent.
func TestBatchDecodeCutsFromOneSlab(t *testing.T) {
	const envs, writesPer = 16, 8
	b := &Batch{ClientSeq: 1}
	for i := 0; i < envs; i++ {
		ws := make([]world.Write, writesPer)
		for j := range ws {
			ws[j] = world.Write{ID: world.ObjectID(100*i + j), Val: world.Value{float64(i), float64(j), 1, 0}}
		}
		b.Envs = append(b.Envs, env(uint64(i+1), action.OriginServer,
			action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: uint32(i + 1)}, ws)))
	}
	buf := Encode(b)
	m, err := Decode(TypeBatch, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range m.(*Batch).Envs {
		got := e.Act.(*action.BlindWrite).Writes()
		want := b.Envs[i].Act.(*action.BlindWrite).Writes()
		if len(got) != len(want) {
			t.Fatalf("envelope %d: %d writes, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].ID != want[j].ID || !got[j].Val.Equal(want[j].Val) || cap(got[j].Val) != len(got[j].Val) {
				t.Fatalf("envelope %d write %d: %+v (cap %d), want %+v", i, j, got[j], cap(got[j].Val), want[j])
			}
		}
	}
	// Per envelope: the action and its write records. Per batch: the
	// message, Envs, the slab and its value array.
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Decode(TypeBatch, buf); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2*envs + 4); allocs > limit {
		t.Fatalf("decoding %d blind writes of %d values allocated %.0f times, want at most %.0f", envs, writesPer, allocs, limit)
	}
}
