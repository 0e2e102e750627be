package spatial

import (
	"math/rand"
	"testing"

	"seve/internal/geom"
)

func TestSegmentIndexWithin(t *testing.T) {
	segs := []geom.Segment{
		{A: geom.Vec{X: 0, Y: 0}, B: geom.Vec{X: 10, Y: 0}},
		{A: geom.Vec{X: 100, Y: 100}, B: geom.Vec{X: 110, Y: 100}},
		{A: geom.Vec{X: 5, Y: 5}, B: geom.Vec{X: 5, Y: 15}},
	}
	idx := NewSegmentIndex(segs, 30)
	if n := idx.CountWithin(geom.Vec{X: 5, Y: 2}, 4); n != 2 {
		t.Fatalf("CountWithin = %d, want 2", n)
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if idx.Segment(1).A.X != 100 {
		t.Fatalf("Segment(1) = %v", idx.Segment(1))
	}
}

// TestSegmentIndexMatchesBruteForce cross-checks the grid against a linear
// scan over random walls, including walls that span cell boundaries.
func TestSegmentIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var segs []geom.Segment
	for i := 0; i < 500; i++ {
		a := geom.Vec{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		dir := geom.Vec{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1}.Normalize()
		segs = append(segs, geom.Segment{A: a, B: a.Add(dir.Scale(10))})
	}
	idx := NewSegmentIndex(segs, 25)
	for trial := 0; trial < 50; trial++ {
		p := geom.Vec{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		r := rng.Float64() * 80
		want := 0
		for _, s := range segs {
			if s.DistTo(p) <= r {
				want++
			}
		}
		if n := idx.CountWithin(p, r); n != want {
			t.Fatalf("trial %d: CountWithin = %d, want %d", trial, n, want)
		}
	}
}

func TestNegativeCoordinates(t *testing.T) {
	// math.Floor-based keys must bucket negative coordinates correctly.
	segs := []geom.Segment{{A: geom.Vec{X: -10, Y: -1}, B: geom.Vec{X: -2, Y: -1}}}
	sidx := NewSegmentIndex(segs, 10)
	if n := sidx.CountWithin(geom.Vec{X: -6, Y: -2}, 2); n != 1 {
		t.Fatalf("negative-coordinate segment query = %d, want 1", n)
	}
}

func TestZeroCellSizeDefaults(t *testing.T) {
	// The constructor must not divide by zero when handed a bad cell size.
	si := NewSegmentIndex(nil, 0)
	if si.Len() != 0 {
		t.Fatal("empty index not empty")
	}
	si = NewSegmentIndex([]geom.Segment{{A: geom.Vec{X: 1, Y: 1}, B: geom.Vec{X: 2, Y: 1}}}, -3)
	if si.CountWithin(geom.Vec{X: 1, Y: 1}, 1) != 1 {
		t.Fatal("index with defaulted cell size lost a segment")
	}
}
