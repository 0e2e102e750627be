package world

import (
	"math/rand"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestInternerAssignsDenseStableIndices(t *testing.T) {
	it := NewInterner()
	ids := []ObjectID{42, 7, 42, 1 << 40, 7, 3}
	want := []uint32{0, 1, 0, 2, 1, 3}
	for i, id := range ids {
		if got := it.Intern(id); got != want[i] {
			t.Fatalf("Intern(%d) = %d, want %d", id, got, want[i])
		}
	}
	if it.Len() != 4 {
		t.Fatalf("Len = %d, want 4", it.Len())
	}
	for i := 0; i < it.Len(); i++ {
		id := it.ID(uint32(i))
		if got, ok := it.Lookup(id); !ok || got != uint32(i) {
			t.Fatalf("Lookup(ID(%d)) = %d,%v", i, got, ok)
		}
	}
	if _, ok := it.Lookup(999); ok {
		t.Fatal("Lookup of never-interned id succeeded")
	}

	set := NewIDSet(3, 7, 42)
	dense := it.InternSet(set, nil)
	if len(dense) != 3 {
		t.Fatalf("InternSet returned %d indices", len(dense))
	}
	for i, d := range dense {
		if it.ID(d) != set[i] {
			t.Fatalf("InternSet order broken at %d: ID(%d)=%d, want %d", i, d, it.ID(d), set[i])
		}
	}
}

// TestScratchSetMatchesIDSet is the property test behind the engine
// rewrite: a random program of Union/Subtract/Intersects steps must give
// identical results through the epoch-stamped ScratchSet and through the
// sorted-slice IDSet operations it replaced.
func TestScratchSetMatchesIDSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	it := NewInterner()
	var sc ScratchSet

	randSet := func(universe int) IDSet {
		k := rng.Intn(8)
		ids := make([]ObjectID, 0, k)
		for i := 0; i < k; i++ {
			ids = append(ids, ObjectID(1+rng.Intn(universe)))
		}
		return NewIDSet(ids...)
	}
	toIDs := func(dense []uint32) IDSet {
		ids := make([]ObjectID, 0, len(dense))
		for _, d := range dense {
			ids = append(ids, it.ID(d))
		}
		slices.Sort(ids)
		return IDSet(ids)
	}

	for trial := 0; trial < 500; trial++ {
		universe := 1 + rng.Intn(50)
		model := randSet(universe) // the reference IDSet value of the set
		sc.Reset(max(it.Len(), 64))
		sc.AddAll(it.InternSet(model, nil))

		// A random program of the three walk operations.
		steps := 1 + rng.Intn(6)
		for s := 0; s < steps; s++ {
			operand := randSet(universe)
			od := it.InternSet(operand, nil)
			sc.Reset(max(it.Len(), 64)) // capacity may have grown
			sc.AddAll(it.InternSet(model, nil))
			switch rng.Intn(3) {
			case 0:
				sc.AddAll(od)
				model = model.Union(operand)
			case 1:
				sc.RemoveAll(od)
				model = model.Subtract(operand)
			case 2:
				if got, want := sc.ContainsAny(od), model.Intersects(operand); got != want {
					t.Fatalf("trial %d: ContainsAny = %v, Intersects = %v (set %v, operand %v)",
						trial, got, want, model, operand)
				}
				continue
			}
			got := toIDs(sc.AppendMembers(nil))
			if !got.Equal(model) {
				t.Fatalf("trial %d step %d: scratch %v, model %v", trial, s, got, model)
			}
			if sc.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len %d, model %d", trial, s, sc.Len(), len(model))
			}
			for id := 1; id <= universe; id++ {
				d, ok := it.Lookup(ObjectID(id))
				in := ok && sc.Contains(d)
				if in != model.Contains(ObjectID(id)) {
					t.Fatalf("trial %d: membership of %d: scratch %v, model %v", trial, id, in, !in)
				}
			}
		}
	}
}

// TestScratchSetReAddAfterRemove guards the duplicate-member hazard: an
// index added, removed, and re-added within one epoch must appear in the
// member list exactly once.
func TestScratchSetReAddAfterRemove(t *testing.T) {
	var sc ScratchSet
	sc.Reset(8)
	if !sc.Add(3) {
		t.Fatal("first Add reported present")
	}
	sc.Remove(3)
	if sc.Contains(3) {
		t.Fatal("Contains after Remove")
	}
	if !sc.Add(3) {
		t.Fatal("re-Add reported present")
	}
	if got := sc.AppendMembers(nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("members = %v, want [3]", got)
	}
	if sc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", sc.Len())
	}
}

// TestScratchSetEpochIsolation checks that Reset fully empties the set
// without touching memory, across enough epochs to catch stamp reuse.
func TestScratchSetEpochIsolation(t *testing.T) {
	var sc ScratchSet
	for epoch := 0; epoch < 100; epoch++ {
		sc.Reset(16)
		for i := uint32(0); i < 16; i++ {
			if sc.Contains(i) {
				t.Fatalf("epoch %d: stale member %d after Reset", epoch, i)
			}
		}
		sc.Add(uint32(epoch % 16))
		if sc.Len() != 1 {
			t.Fatalf("epoch %d: Len %d", epoch, sc.Len())
		}
	}
}

// TestScratchSetGrow checks Grow preserves membership across capacity
// growth, unlike Reset.
func TestScratchSetGrow(t *testing.T) {
	var sc ScratchSet
	sc.Reset(4)
	sc.Add(1)
	sc.Add(3)
	sc.Remove(3)
	sc.Grow(1000)
	if !sc.Contains(1) || sc.Contains(3) || sc.Contains(999) {
		t.Fatal("Grow changed membership")
	}
	sc.Add(999)
	if got := sc.AppendMembers(nil); len(got) != 2 || got[0] != 1 || got[1] != 999 {
		t.Fatalf("members after Grow = %v, want [1 999]", got)
	}
}

func TestCountedSet(t *testing.T) {
	var cs CountedSet
	cs.Grow(8)
	cs.Inc(2)
	cs.Inc(2)
	cs.Inc(5)
	if !cs.Contains(2) || !cs.Contains(5) || cs.Contains(3) || cs.Contains(100) {
		t.Fatal("membership wrong after Inc")
	}
	if cs.Distinct() != 2 {
		t.Fatalf("Distinct = %d, want 2", cs.Distinct())
	}
	cs.Dec(2)
	if !cs.Contains(2) {
		t.Fatal("multiplicity 1 should still be a member")
	}
	cs.Dec(2)
	if cs.Contains(2) || cs.Distinct() != 1 {
		t.Fatalf("Contains(2)=%v Distinct=%d after final Dec", cs.Contains(2), cs.Distinct())
	}
	cs.Grow(1000)
	if !cs.Contains(5) {
		t.Fatal("Grow dropped membership")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dec of absent index did not panic")
		}
	}()
	cs.Dec(2)
}

// TestNoCopyMarkerIsLive proves the gate that replaced seve-vet's nocopy
// checker: stock `go vet` refuses a package that copies a ScratchSet or
// a CountedSet by value. It fails if someone removes the marker.
func TestNoCopyMarkerIsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	out, err := exec.Command("go", "vet", "./testdata/copycheck").CombinedOutput()
	if err == nil {
		t.Fatalf("go vet accepted by-value copies of ScratchSet and CountedSet:\n%s", out)
	}
	for _, typ := range []string{"ScratchSet", "CountedSet"} {
		want := "copies lock value to cp: seve/internal/world." + typ + " contains seve/internal/world.noCopy"
		if !strings.Contains(string(out), want) {
			t.Errorf("go vet output misses %q:\n%s", want, out)
		}
	}
}

// TestNoCopyMarkerIsFree pins what "first field, zero size" buys: the
// marker adds no bytes to either struct.
func TestNoCopyMarkerIsFree(t *testing.T) {
	if got := unsafe.Sizeof(ScratchSet{}); got != 3*unsafe.Sizeof([]uint64(nil))+8 {
		t.Errorf("ScratchSet is %d bytes, want three slices and an epoch", got)
	}
	if got := unsafe.Sizeof(CountedSet{}); got != unsafe.Sizeof([]uint32(nil))+unsafe.Sizeof(int(0)) {
		t.Errorf("CountedSet is %d bytes, want one slice and a count", got)
	}
}
