package world

import "testing"

func TestStateBasics(t *testing.T) {
	s := NewState()
	if _, ok := s.Get(1); ok {
		t.Fatal("empty state has object 1")
	}
	s.Set(1, Value{1, 2})
	s.Set(2, Value{3})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	v, ok := s.Get(1)
	if !ok || !v.Equal(Value{1, 2}) {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	s.Delete(1)
	if _, ok := s.Get(1); ok {
		t.Fatal("deleted object still present")
	}
	if !s.IDs().Equal(NewIDSet(2)) {
		t.Fatalf("IDs = %v", s.IDs())
	}
}

func TestStateSetCopies(t *testing.T) {
	s := NewState()
	v := Value{1, 2}
	s.Set(1, v)
	v[0] = 99
	got, _ := s.Get(1)
	if got[0] != 1 {
		t.Fatal("Set aliased caller's slice")
	}
}

func TestStateSetInPlace(t *testing.T) {
	s := NewState()
	s.Set(1, Value{1, 2})
	buf, _ := s.Get(1)

	// Same length: the stored buffer is reused and the caller's slice is
	// copied, not aliased.
	v := Value{3, 4}
	s.SetInPlace(1, v)
	v[0] = 99
	got, _ := s.Get(1)
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("in-place overwrite got %v", got)
	}
	if &got[0] != &buf[0] {
		t.Fatal("same-length SetInPlace did not reuse the stored buffer")
	}

	// Length change and fresh id fall back to a cloned store.
	s.SetInPlace(1, Value{5})
	if got, _ := s.Get(1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("length-changing SetInPlace got %v", got)
	}
	w := Value{6}
	s.SetInPlace(2, w)
	w[0] = 99
	if got, _ := s.Get(2); got[0] != 6 {
		t.Fatal("fresh-id SetInPlace aliased caller's slice")
	}
}

func TestStateClone(t *testing.T) {
	s := NewState()
	s.Set(1, Value{1})
	c := s.Clone()
	c.Set(1, Value{2})
	c.Set(3, Value{3})
	if v, _ := s.Get(1); v[0] != 1 {
		t.Fatal("clone write leaked into original")
	}
	if s.Len() != 1 {
		t.Fatal("clone insert leaked into original")
	}
}

func TestStateWrites(t *testing.T) {
	s := NewState()
	s.Partition(2) // id order must hold across segments too
	for _, id := range []ObjectID{9, 2, 5} {
		s.Set(id, Value{float64(id)})
	}
	ws := s.Writes()
	if len(ws) != 3 || ws[0].ID != 2 || ws[1].ID != 5 || ws[2].ID != 9 {
		t.Fatalf("Writes = %v, want ids 2 5 9", ws)
	}
	ws[0].Val[0] = -1
	if v, _ := s.Get(2); v[0] != 2 {
		t.Fatal("Writes aliased the state's value")
	}
}

func TestStateCopyFrom(t *testing.T) {
	dst := NewState()
	dst.Set(1, Value{0})
	dst.Set(2, Value{0})
	dst.Set(3, Value{0})
	src := NewState()
	src.Set(1, Value{10})
	// 2 is absent in src: CopyFrom must delete it in dst.
	src.Set(3, Value{30})
	dst.CopyFrom(src, NewIDSet(1, 2))
	if v, _ := dst.Get(1); v[0] != 10 {
		t.Fatalf("object 1 = %v, want 10", v)
	}
	if _, ok := dst.Get(2); ok {
		t.Fatal("object 2 should have been deleted")
	}
	if v, _ := dst.Get(3); v[0] != 0 {
		t.Fatal("object 3 outside id set was touched")
	}
}

func TestStateDigestAndEqual(t *testing.T) {
	a := NewState()
	b := NewState()
	a.Set(1, Value{1, 2})
	a.Set(2, Value{3})
	b.Set(2, Value{3})
	b.Set(1, Value{1, 2})
	if a.Digest() != b.Digest() {
		t.Fatal("digest depends on insertion order")
	}
	if !a.Equal(b) {
		t.Fatal("equal states not Equal")
	}
	b.Set(1, Value{1, 3})
	if a.Digest() == b.Digest() {
		t.Fatal("different states share digest")
	}
	if a.Equal(b) {
		t.Fatal("different states Equal")
	}
	b.Set(1, Value{1, 2})
	b.Set(9, Value{})
	if a.Equal(b) {
		t.Fatal("states with different object counts Equal")
	}
}

func TestValueCloneEqual(t *testing.T) {
	v := Value{1, 2}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone aliases")
	}
	if Value(nil).Clone() != nil {
		t.Fatal("nil Clone not nil")
	}
	if !Value(nil).Equal(Value{}) {
		t.Fatal("nil and empty should be Equal (both zero-length)")
	}
	if v.Equal(Value{1}) {
		t.Fatal("length mismatch Equal")
	}
	if v.Equal(Value{1, 3}) {
		t.Fatal("value mismatch Equal")
	}
}
