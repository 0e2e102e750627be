package world

import "testing"

func TestSlabCutsFromSharedArrays(t *testing.T) {
	s := NewSlab(8, 8, 0)
	a, b := s.IDs(3), s.IDs(2)
	v, w := s.Value(4), s.Value(0)
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 || len(v) != 4 || cap(v) != 4 || len(w) != 0 {
		t.Fatalf("cuts: ids %d/%d %d/%d, values %d/%d %d", len(a), cap(a), len(b), cap(b), len(v), cap(v), len(w))
	}
	// No spare capacity: growing one run must not write into the next.
	b[0] = 7
	a = append(a, 99)
	if b[0] != 7 {
		t.Fatal("append to one run overwrote its neighbour")
	}
	// What the slab cannot hold is allocated on its own, as is anything
	// asked of a nil slab.
	if big := s.IDs(9); len(big) != 9 {
		t.Fatalf("oversized request returned %d ids", len(big))
	}
	if rest := s.IDs(4); len(rest) != 4 { // 3 left in the array
		t.Fatalf("request past the array's end returned %d ids", len(rest))
	}
	var none *Slab
	if ids, val := none.IDs(2), none.Value(3); len(ids) != 2 || len(val) != 3 {
		t.Fatalf("nil slab: %d ids, %d attributes", len(ids), len(val))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s := Slab{nIDs: 64, nVals: 64}
		for i := 0; i < 8; i++ {
			s.IDs(4)
			s.Value(4)
		}
	}); allocs != 2 {
		t.Fatalf("16 cuts from one slab allocated %.0f times, want once per array", allocs)
	}
}

// TestSlabObjArena: the first type asked for owns the arena, every cut is
// its own zeroed slot, and whatever the arena cannot serve — another
// type, a slot past its end, a slab sized for one struct — is new(T).
func TestSlabObjArena(t *testing.T) {
	type obj struct {
		a, b int
		ids  []ObjectID
	}
	s := NewSlab(0, 0, 3)
	seen := map[*obj]bool{}
	for i := 0; i < 3; i++ {
		o := Obj[obj](s)
		if o.a != 0 || o.b != 0 || o.ids != nil || seen[o] {
			t.Fatalf("cut %d: %+v, handed out before: %v", i, *o, seen[o])
		}
		seen[o] = true
		o.a = i + 1
	}
	if other := Obj[int](s); other == nil || *other != 0 {
		t.Fatal("a second type was not served on its own")
	}
	past := Obj[obj](s)
	if seen[past] {
		t.Fatal("a request past the arena's end reused a slot")
	}
	for o := range seen {
		if o.a == 0 {
			t.Fatal("a later cut zeroed an earlier one")
		}
	}
	var none *Slab
	if Obj[obj](none) == nil {
		t.Fatal("nil slab returned nil")
	}

	// An arena is one box and one array whatever it serves; a slab with
	// room for one struct pays for that struct alone.
	for _, c := range []struct{ objs, want int }{{2, 2}, {8, 2}, {64, 2}, {1, 1}} {
		allocs := testing.AllocsPerRun(50, func() {
			s := Slab{nObjs: c.objs}
			for i := 0; i < c.objs; i++ {
				Obj[obj](&s)
			}
		})
		if allocs != float64(c.want) {
			t.Fatalf("%d cuts allocated %.0f times, want %d", c.objs, allocs, c.want)
		}
	}
}

func TestAsIDSet(t *testing.T) {
	sorted := []ObjectID{1, 4, 9}
	if got := AsIDSet(sorted); &got[0] != &sorted[0] || !got.Equal(IDSet{1, 4, 9}) {
		t.Fatalf("an ascending run was not taken as it stands: %v", got)
	}
	for _, in := range [][]ObjectID{{4, 1, 9}, {1, 1, 4}, {9, 4, 4, 1, 9}} {
		if got, want := AsIDSet(append([]ObjectID(nil), in...)), NewIDSet(in...); !got.Equal(want) {
			t.Fatalf("AsIDSet(%v) = %v, want %v", in, got, want)
		}
	}
	if got := AsIDSet(nil); len(got) != 0 {
		t.Fatalf("AsIDSet(nil) = %v", got)
	}
}
