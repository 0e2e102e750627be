package spatial

import (
	"math"
	"math/rand"
	"testing"
	"time"

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
		if any := idx.AnyWithin(p, r); any != (want > 0) {
			t.Fatalf("trial %d: AnyWithin = %v with %d within", trial, any, want)
		}
	}
}

// TestHostileQueriesMatchBruteForce queries positions and radii the cell
// function refuses — NaN, ±Inf, ±1e300 — and boxes straddling ±2³⁰ cells,
// over walls that include some the grid cannot place. Each query must
// return promptly (a cell loop up to a saturated int32 key wraps and
// never ends) and equal a linear scan.
func TestHostileQueriesMatchBruteForce(t *testing.T) {
	const cell = 25
	edge := float64(1<<30) * cell
	segs := []geom.Segment{
		{A: geom.Vec{X: 0, Y: 0}, B: geom.Vec{X: 10, Y: 0}},
		{A: geom.Vec{X: edge - 60, Y: 0}, B: geom.Vec{X: edge - 55, Y: 0}},
		{A: geom.Vec{X: edge - 5, Y: 0}, B: geom.Vec{X: edge + 5, Y: 0}},
		{A: geom.Vec{X: -edge + 5, Y: 0}, B: geom.Vec{X: -edge - 5, Y: 0}},
		{A: geom.Vec{X: math.NaN(), Y: 0}, B: geom.Vec{X: 1, Y: 1}},
	}
	idx := NewSegmentIndex(segs, cell)
	inf, nan := math.Inf(1), math.NaN()
	queries := []struct {
		p geom.Vec
		r float64
	}{
		{geom.Vec{X: nan, Y: 0}, 10},
		{geom.Vec{X: 0, Y: nan}, 10},
		{geom.Vec{X: 5, Y: 0}, nan},
		{geom.Vec{X: inf, Y: 0}, 10},
		{geom.Vec{X: -inf, Y: -inf}, 10},
		{geom.Vec{X: 5, Y: 0}, inf},
		{geom.Vec{X: 1e300, Y: 1e300}, 10},
		{geom.Vec{X: -1e300, Y: 0}, 10},
		{geom.Vec{X: 5, Y: 0}, 1e300},
		{geom.Vec{X: edge - 50, Y: 0}, 20},
		{geom.Vec{X: edge - 2, Y: 0}, 20},
		{geom.Vec{X: -edge + 2, Y: 0}, 20},
		{geom.Vec{X: 0, Y: edge - 1}, 40},
		{geom.Vec{X: 5, Y: 0}, edge / 4},
		{geom.Vec{X: edge - 6, Y: 1}, 1.5}, // a grid query only an unplaced wall meets
	}
	for _, q := range queries {
		want := 0
		for _, s := range segs {
			if s.DistTo(q.p) <= q.r {
				want++
			}
		}
		got := make(chan int, 1)
		go func() { got <- idx.CountWithin(q.p, q.r) }()
		select {
		case n := <-got:
			if n != want {
				t.Errorf("CountWithin(%v, %g) = %d, want %d", q.p, q.r, n, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("CountWithin(%v, %g) did not return", q.p, q.r)
		}
		hit := make(chan bool, 1)
		go func() { hit <- idx.AnyWithin(q.p, q.r) }()
		select {
		case any := <-hit:
			if any != (want > 0) {
				t.Errorf("AnyWithin(%v, %g) = %v with %d within", q.p, q.r, any, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("AnyWithin(%v, %g) did not return", q.p, q.r)
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

// TestCountWithinCountsEachSegmentOnce: a segment is listed in every cell
// its box meets, and the count must still equal a linear scan — over
// walls spanning up to 60 cells, more than any small inline buffer of
// seen ids would hold, and queries of every size — and allocate nothing.
func TestCountWithinCountsEachSegmentOnce(t *testing.T) {
	const cell = 10
	rng := rand.New(rand.NewSource(3))
	segs := []geom.Segment{
		{A: geom.Vec{X: 5, Y: 250}, B: geom.Vec{X: 595, Y: 250}}, // 60 cells in a row
		{A: geom.Vec{X: 20, Y: 20}, B: geom.Vec{X: 400, Y: 400}}, // 39×39 cells
		{A: geom.Vec{X: 300, Y: 5}, B: geom.Vec{X: 300, Y: 590}}, // a column
	}
	for i := 0; i < 300; i++ {
		a := geom.Vec{X: rng.Float64() * 600, Y: rng.Float64() * 600}
		d := geom.Vec{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1}.Normalize()
		segs = append(segs, geom.Segment{A: a, B: a.Add(d.Scale(rng.Float64() * 80))})
	}
	idx := NewSegmentIndex(segs, cell)
	for trial := 0; trial < 400; trial++ {
		p := geom.Vec{X: rng.Float64()*700 - 50, Y: rng.Float64()*700 - 50}
		r := rng.Float64() * 60
		want := 0
		for _, s := range segs {
			if s.DistTo(p) <= r {
				want++
			}
		}
		if n := idx.CountWithin(p, r); n != want {
			t.Fatalf("trial %d: CountWithin(%v, %g) = %d, want %d", trial, p, r, n, want)
		}
		if any := idx.AnyWithin(p, r); any != (want > 0) {
			t.Fatalf("trial %d: AnyWithin(%v, %g) = %v with %d within", trial, p, r, any, want)
		}
	}
	p := geom.Vec{X: 300, Y: 250}
	if allocs := testing.AllocsPerRun(100, func() { idx.CountWithin(p, 45) }); allocs != 0 {
		t.Fatalf("CountWithin allocated %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { idx.AnyWithin(p, 45); idx.AnyWithin(geom.Vec{X: -40, Y: -40}, 5) }); allocs != 0 {
		t.Fatalf("AnyWithin allocated %.1f times, want 0", allocs)
	}
}
