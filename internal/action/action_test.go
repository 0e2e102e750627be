package action

import (
	"testing"

	"seve/internal/world"
)

// incr is a minimal test action: it reads object Target, adds Delta to
// attribute 0 and writes it back. If Target is unknown it aborts.
type incr struct {
	id     ID
	Target world.ObjectID
	Delta  float64
	// extraRead, if nonzero, is read but not written, widening RS.
	extraRead world.ObjectID
	// rogue makes Apply write outside the declared write set, for
	// CheckAccess tests.
	rogue bool
}

func (a *incr) ID() ID     { return a.id }
func (a *incr) Kind() Kind { return 100 }

func (a *incr) ReadSet() world.IDSet {
	if a.extraRead != 0 {
		return world.NewIDSet(a.Target, a.extraRead)
	}
	return world.NewIDSet(a.Target)
}

func (a *incr) WriteSet() world.IDSet { return world.NewIDSet(a.Target) }

func (a *incr) Apply(tx *world.Tx) bool {
	if a.extraRead != 0 {
		tx.Read(a.extraRead)
	}
	v, ok := tx.Read(a.Target)
	if !ok {
		return false
	}
	nv := v.Clone()
	nv[0] += a.Delta
	tx.Write(a.Target, nv)
	if a.rogue {
		// Deliberate out-of-set write: this fixture exists to trip CheckAccess.
		tx.Write(a.Target+1000, world.Value{1})
	}
	return true
}

func (a *incr) MarshalBody() []byte { return nil }

func TestEvalCommit(t *testing.T) {
	s := world.NewState()
	s.Set(1, world.Value{10})
	a := &incr{id: ID{Client: 1, Seq: 1}, Target: 1, Delta: 5}
	r := Eval(a, world.StateView{S: s})
	if !r.OK {
		t.Fatal("expected commit")
	}
	if len(r.Writes) != 1 || r.Writes[0].Val[0] != 15 {
		t.Fatalf("writes = %v", r.Writes)
	}
	// Eval must not mutate the underlying state.
	if v, _ := s.Get(1); v[0] != 10 {
		t.Fatal("Eval wrote through")
	}
}

func TestEvalAbortDiscardsWrites(t *testing.T) {
	s := world.NewState()
	a := &incr{id: ID{Client: 1, Seq: 1}, Target: 1, Delta: 5}
	r := Eval(a, world.StateView{S: s})
	if r.OK {
		t.Fatal("expected abort on unknown object")
	}
	if len(r.Writes) != 0 {
		t.Fatalf("aborted action leaked writes: %v", r.Writes)
	}
}

func TestResultEqual(t *testing.T) {
	r1 := Result{OK: true, Writes: []world.Write{{ID: 1, Val: world.Value{1}}}}
	r2 := Result{OK: true, Writes: []world.Write{{ID: 1, Val: world.Value{1}}}}
	if !r1.Equal(r2) {
		t.Fatal("identical results not equal")
	}
	r3 := Result{OK: true, Writes: []world.Write{{ID: 1, Val: world.Value{2}}}}
	if r1.Equal(r3) {
		t.Fatal("different values equal")
	}
	r4 := Result{OK: false}
	if r1.Equal(r4) {
		t.Fatal("commit equals abort")
	}
	r5 := Result{OK: true, Writes: []world.Write{{ID: 2, Val: world.Value{1}}}}
	if r1.Equal(r5) {
		t.Fatal("different ids equal")
	}
}

func TestResultClone(t *testing.T) {
	r := Result{OK: true, Writes: []world.Write{{ID: 1, Val: world.Value{1}}}}
	c := r.Clone()
	c.Writes[0].Val[0] = 9
	if r.Writes[0].Val[0] != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestCheckAccess(t *testing.T) {
	s := world.NewState()
	s.Set(1, world.Value{0})
	s.Set(2, world.Value{0})

	good := &incr{id: ID{Client: 1, Seq: 1}, Target: 1, extraRead: 2}
	tx := world.NewTx(world.StateView{S: s})
	good.Apply(tx)
	if err := CheckAccess(good, tx); err != nil {
		t.Fatalf("good action flagged: %v", err)
	}

	rogue := &incr{id: ID{Client: 1, Seq: 2}, Target: 1, rogue: true}
	tx2 := world.NewTx(world.StateView{S: s})
	rogue.Apply(tx2)
	if err := CheckAccess(rogue, tx2); err == nil {
		t.Fatal("rogue write not flagged")
	}

	// An action reading outside RS is also flagged.
	sneaky := &incr{id: ID{Client: 1, Seq: 3}, Target: 1}
	tx3 := world.NewTx(world.StateView{S: s})
	sneaky.Apply(tx3)
	tx3.Read(2) // out-of-band read
	if err := CheckAccess(sneaky, tx3); err == nil {
		t.Fatal("rogue read not flagged")
	}
}

func TestBlindWriteApply(t *testing.T) {
	b := NewBlindWrite(ID{Client: OriginServer, Seq: 1}, []world.Write{
		{ID: 3, Val: world.Value{7, 8}},
		{ID: 1, Val: world.Value{9}},
	})
	if b.Kind() != KindBlindWrite {
		t.Fatal("wrong kind")
	}
	if !b.WriteSet().Equal(world.NewIDSet(1, 3)) {
		t.Fatalf("WriteSet = %v", b.WriteSet())
	}
	if !b.ReadSet().Equal(b.WriteSet()) {
		t.Fatal("RS(W(S,v)) must equal S")
	}
	r := Eval(b, world.StateView{S: world.NewState()})
	if !r.OK || len(r.Writes) != 2 {
		t.Fatalf("blind write result = %+v", r)
	}
}

func TestBlindWriteRoundTrip(t *testing.T) {
	b := NewBlindWrite(ID{Client: OriginServer, Seq: 42}, []world.Write{
		{ID: 3, Val: world.Value{7.5, -8}},
		{ID: 900, Val: world.Value{}},
	})
	body := b.MarshalBody()
	got, err := UnmarshalBlindWrite(b.ID(), body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != b.ID() {
		t.Fatalf("id = %v", got.ID())
	}
	w := got.Writes()
	if len(w) != 2 || w[0].ID != 3 || !w[0].Val.Equal(world.Value{7.5, -8}) {
		t.Fatalf("writes = %v", w)
	}
	if w[1].ID != 900 || len(w[1].Val) != 0 {
		t.Fatalf("empty-value write = %v", w[1])
	}
}

func TestBlindWriteUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalBlindWrite(ID{}, []byte{1, 2}, nil); err == nil {
		t.Fatal("short body accepted")
	}
	b := NewBlindWrite(ID{}, []world.Write{{ID: 1, Val: world.Value{1}}})
	body := b.MarshalBody()
	if _, err := UnmarshalBlindWrite(ID{}, body[:len(body)-3], nil); err == nil {
		t.Fatal("truncated value accepted")
	}
	if _, err := UnmarshalBlindWrite(ID{}, body[:6], nil); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestIDString(t *testing.T) {
	id := ID{Client: 3, Seq: 17}
	if id.String() != "a3.17" {
		t.Fatalf("String = %q", id.String())
	}
}

// TestResultCloneInto checks deep-copy semantics with buffer reuse: the
// destination must equal the source yet share no memory with it.
func TestResultCloneInto(t *testing.T) {
	src := Result{OK: true, Writes: []world.Write{
		{ID: 1, Val: world.Value{1, 2}},
		{ID: 2, Val: world.Value{3}},
	}}
	var dst Result
	src.CloneInto(&dst)
	if !dst.Equal(src) {
		t.Fatalf("CloneInto produced %+v", dst)
	}
	src.Writes[0].Val[0] = 99
	if dst.Writes[0].Val[0] != 1 {
		t.Fatal("CloneInto aliased source values")
	}
	src.Writes[0].Val[0] = 1

	// Refresh into the same destination with fewer, larger writes: the
	// buffers must be reused, not reallocated, and lengths must shrink.
	prevCap := cap(dst.Writes)
	small := Result{OK: false, Writes: []world.Write{{ID: 9, Val: world.Value{5, 6, 7}}}}
	small.CloneInto(&dst)
	if dst.OK || len(dst.Writes) != 1 || !dst.Writes[0].Val.Equal(world.Value{5, 6, 7}) {
		t.Fatalf("refresh = %+v", dst)
	}
	if cap(dst.Writes) != prevCap {
		t.Fatalf("CloneInto reallocated Writes: cap %d -> %d", prevCap, cap(dst.Writes))
	}
}

// TestEvalTxReuse checks the scratch-transaction evaluation loop: one Tx
// Reset per action, results cloned out between runs.
func TestEvalTxReuse(t *testing.T) {
	s := world.NewState()
	s.Set(1, world.Value{0})
	tx := world.NewTx(world.StateView{S: s})
	var kept []Result
	for i := 0; i < 3; i++ {
		tx.Reset(world.StateView{S: s})
		res := EvalTx(NewBlindWrite(ID{Seq: uint32(i)},
			[]world.Write{{ID: 1, Val: world.Value{float64(i)}}}), tx)
		var c Result
		res.CloneInto(&c)
		kept = append(kept, c)
	}
	for i, r := range kept {
		if !r.OK || r.Writes[0].Val[0] != float64(i) {
			t.Fatalf("kept[%d] = %+v (scratch reuse corrupted results)", i, r)
		}
	}
}
