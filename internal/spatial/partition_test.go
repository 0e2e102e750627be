package spatial

import (
	"math/rand"
	"testing"

	"seve/internal/geom"
)

func TestPartitionerRegionStable(t *testing.T) {
	p := NewPartitioner(100, 8)
	// Same cell → same shard, regardless of where in the cell.
	a := p.Region(geom.Vec{X: 10, Y: 10})
	b := p.Region(geom.Vec{X: 99, Y: 99})
	if a != b {
		t.Fatalf("positions in one cell mapped to shards %d and %d", a, b)
	}
	// Negative coordinates quantize to their own cells, not cell 0.
	if p.Region(geom.Vec{X: -1, Y: -1}) != p.Region(geom.Vec{X: -99, Y: -99}) {
		t.Fatal("negative cell split across shards")
	}
	for i := 0; i < 1000; i++ {
		v := geom.Vec{X: rand.Float64()*1e6 - 5e5, Y: rand.Float64()*1e6 - 5e5}
		if r := p.Region(v); r < 0 || r >= 8 {
			t.Fatalf("Region(%v) = %d out of range", v, r)
		}
	}
}

func TestPartitionerClamps(t *testing.T) {
	p := NewPartitioner(0, 0)
	if p.Shards() != 1 || p.CellSize() != 1 {
		t.Fatalf("clamped partitioner = %d shards cell %g", p.Shards(), p.CellSize())
	}
	if p.Region(geom.Vec{X: 123, Y: -456}) != 0 {
		t.Fatal("single shard partitioner returned nonzero region")
	}
}

// TestPartitionerBalance checks the anti-hot-spot claim: a compact
// crowd spanning a few cells, and a wide uniform scatter, must both use
// every shard rather than collapsing onto a stripe.
func TestPartitionerBalance(t *testing.T) {
	p := NewPartitioner(10, 4)
	counts := make([]int, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		v := geom.Vec{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		counts[p.Region(v)]++
	}
	for s, c := range counts {
		if c < 400 {
			t.Fatalf("shard %d owns only %d/4000 of a compact crowd: %v", s, c, counts)
		}
	}
	// Diagonals must not align with the dealing (the plain (x+y) mod n
	// failure mode).
	diag := make([]int, 4)
	for i := 0; i < 64; i++ {
		diag[p.Region(geom.Vec{X: float64(i) * 10, Y: float64(i) * 10})]++
	}
	hit := 0
	for _, c := range diag {
		if c > 0 {
			hit++
		}
	}
	if hit < 2 {
		t.Fatalf("diagonal cells collapsed onto %d shard(s): %v", hit, diag)
	}
}

// TestLaneMapLeastLoaded pins the first-sight assignment policy: cells
// are dealt to the least-loaded lane, so any k distinct cells spread
// within one cell of perfectly even — the property that keeps the
// slowest lane (which bounds every parallel epoch phase) from owning a
// hashing accident. Repeating the lookups must not re-deal.
func TestLaneMapLeastLoaded(t *testing.T) {
	m := NewLaneMap(NewPartitioner(10, 4))
	var first []int
	for i := 0; i < 10; i++ {
		first = append(first, m.LaneOf(geom.Vec{X: float64(i) * 10, Y: 0}))
	}
	counts := make([]int, m.Shards())
	for _, lane := range first {
		counts[lane]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("least-loaded dealing left lanes uneven: %v", counts)
	}
	for i := 0; i < 10; i++ {
		if m.LaneOf(geom.Vec{X: float64(i)*10 + 5, Y: 5}) != first[i] {
			t.Fatalf("cell %d re-dealt on repeat lookup", i)
		}
	}
}
