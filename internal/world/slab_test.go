package world

import "testing"

func TestSlabCutsFromSharedArrays(t *testing.T) {
	s := NewSlab(8)
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
		s := Slab{words: 64}
		for i := 0; i < 8; i++ {
			s.IDs(4)
			s.Value(4)
		}
	}); allocs != 2 {
		t.Fatalf("16 cuts from one slab allocated %.0f times, want once per array", allocs)
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
