package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if v.Len() != 5 {
		t.Fatalf("Len = %v, want 5", v.Len())
	}
	if v.Len2() != 25 {
		t.Fatalf("Len2 = %v, want 25", v.Len2())
	}
	if got := v.Add(Vec{1, -1}); got != (Vec{4, 3}) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(Vec{1, 1}); got != (Vec{2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec{6, 8}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dot(Vec{2, 1}); got != 10 {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.Normalize(); !approx(got.Len(), 1) {
		t.Fatalf("Normalize length = %v", got.Len())
	}
	if got := (Vec{}).Normalize(); got != (Vec{}) {
		t.Fatalf("Normalize zero = %v", got)
	}
}

func TestRotate90(t *testing.T) {
	v := Vec{1, 0}
	for i, want := range []Vec{{0, 1}, {-1, 0}, {0, -1}, {1, 0}} {
		v = v.Rotate90()
		if !approx(v.X, want.X) || !approx(v.Y, want.Y) {
			t.Fatalf("rotation %d = %v, want %v", i+1, v, want)
		}
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{A: Vec{0, 0}, B: Vec{10, 0}}
	cases := []struct {
		p, want Vec
	}{
		{Vec{5, 3}, Vec{5, 0}},    // interior projection
		{Vec{-4, 2}, Vec{0, 0}},   // clamped to A
		{Vec{15, -2}, Vec{10, 0}}, // clamped to B
	}
	for _, c := range cases {
		got := s.ClosestPoint(c.p)
		if !approx(got.X, c.want.X) || !approx(got.Y, c.want.Y) {
			t.Fatalf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Degenerate zero-length segment.
	d := Segment{A: Vec{2, 2}, B: Vec{2, 2}}
	if got := d.ClosestPoint(Vec{9, 9}); got != (Vec{2, 2}) {
		t.Fatalf("degenerate ClosestPoint = %v", got)
	}
}

func TestSegmentCircleIntersection(t *testing.T) {
	s := Segment{A: Vec{0, 0}, B: Vec{10, 0}}
	if !s.IntersectsCircle(Vec{5, 2}, 2) {
		t.Fatal("tangent circle should intersect")
	}
	if s.IntersectsCircle(Vec{5, 3}, 2) {
		t.Fatal("distant circle should not intersect")
	}
	if !s.IntersectsCircle(Vec{-1, 0}, 1.5) {
		t.Fatal("circle near endpoint should intersect")
	}
}

func TestCircle(t *testing.T) {
	c := Circle{Center: Vec{0, 0}, R: 5}
	if !c.Contains(Vec{3, 4}) {
		t.Fatal("boundary point should be contained")
	}
	if c.Contains(Vec{3.1, 4}) {
		t.Fatal("outside point contained")
	}
	if !c.Intersects(Circle{Center: Vec{10, 0}, R: 5}) {
		t.Fatal("touching circles should intersect")
	}
	if c.Intersects(Circle{Center: Vec{10.01, 0}, R: 5}) {
		t.Fatal("separated circles intersect")
	}
	if got := c.Expand(-10).R; got != 0 {
		t.Fatalf("Expand clamped R = %v, want 0", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(100, 50)
	if !r.Contains(Vec{0, 0}) || !r.Contains(Vec{100, 50}) {
		t.Fatal("corners should be contained")
	}
	if r.Contains(Vec{100.1, 0}) {
		t.Fatal("outside point contained")
	}
	if got := r.Clamp(Vec{-5, 60}); got != (Vec{0, 50}) {
		t.Fatalf("Clamp = %v, want (0,50)", got)
	}
	if r.Width() != 100 || r.Height() != 50 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
}

func TestInfluenceReachableEquationOne(t *testing.T) {
	// With s=0 the bound degenerates to rC + rA: pure overlap of the two
	// influence spheres.
	if !InfluenceReachable(Vec{0, 0}, Vec{10, 0}, 4, 6, 0, 0.5, 476) {
		t.Fatal("touching spheres with s=0 should be reachable")
	}
	if InfluenceReachable(Vec{0, 0}, Vec{10.1, 0}, 4, 6, 0, 0.5, 476) {
		t.Fatal("separated spheres with s=0 reachable")
	}
	// With motion the bound widens by 2s(1+w)RTT.
	s, omega, rtt := 0.01, 0.5, 476.0
	widen := 2 * s * (1 + omega) * rtt // = 14.28
	d := 10 + widen
	if !InfluenceReachable(Vec{0, 0}, Vec{d - 1e-9, 0}, 4, 6, s, omega, rtt) {
		t.Fatal("point just inside widened bound unreachable")
	}
	if InfluenceReachable(Vec{0, 0}, Vec{d + 1e-6, 0}, 4, 6, s, omega, rtt) {
		t.Fatal("point just outside widened bound reachable")
	}
}

// TestCellOf pins the one cell function: floor quantization (negative
// coordinates get their own cells), refusal of every position whose
// index is not a bounded int32 — the engine's cells hold client-declared
// positions — and keys ordered by column, then row.
func TestCellOf(t *testing.T) {
	for _, tc := range []struct {
		p      Vec
		cx, cy int32
	}{{Vec{0, 0}, 0, 0}, {Vec{9.99, 10}, 0, 1}, {Vec{-0.5, -10}, -1, -1}, {Vec{-10.01, 25}, -2, 2}} {
		if cx, cy, ok := CellOf(tc.p, 10); !ok || cx != tc.cx || cy != tc.cy {
			t.Fatalf("CellOf(%v) = (%d, %d, %v), want (%d, %d)", tc.p, cx, cy, ok, tc.cx, tc.cy)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Vec{{nan, 0}, {0, inf}, {-inf, 0}, {1e300, 0}, {0, -1e300}, {10 * (1 << 30), 0}} {
		if _, _, ok := CellOf(p, 10); ok {
			t.Fatalf("CellOf(%v) placed a position off the keys", p)
		}
	}
	if _, _, ok := CellOf(Vec{1, 1}, nan); ok {
		t.Fatal("CellOf placed a position in NaN-sized cells")
	}
	if !(CellKey(-1, 5) < CellKey(0, -5) && CellKey(0, -5) < CellKey(0, -4) && CellKey(0, 4) < CellKey(1, -(1<<30))) {
		t.Fatal("cell keys not ordered by column, then row")
	}
}

func TestMovingInfluenceReachable(t *testing.T) {
	// An arrow flying away from the client should not be reachable even
	// though its origin is close.
	pM, vM := Vec{0, 0}, Vec{1, 0} // 1 unit per ms, flying +x
	pC := Vec{-50, 0}
	if MovingInfluenceReachable(pM, vM, pC, 5, 0.001, 0.5, 476, 100) {
		t.Fatal("receding arrow flagged reachable")
	}
	// The same arrow flying toward the client is reachable.
	if !MovingInfluenceReachable(pM, Vec{-1, 0}, pC, 5, 0.001, 0.5, 476, 49) {
		t.Fatal("approaching arrow not reachable")
	}
}

func TestInfluenceSymmetryProperty(t *testing.T) {
	// Equation (1) is symmetric in (pA,rA) <-> (pC,rC).
	f := func(ax, ay, cx, cy, ra, rc float64) bool {
		pA := Vec{math.Mod(ax, 1000), math.Mod(ay, 1000)}
		pC := Vec{math.Mod(cx, 1000), math.Mod(cy, 1000)}
		ra = math.Abs(math.Mod(ra, 50))
		rc = math.Abs(math.Mod(rc, 50))
		a := InfluenceReachable(pA, pC, ra, rc, 0.01, 0.5, 476)
		b := InfluenceReachable(pC, pA, rc, ra, 0.01, 0.5, 476)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClosestPointIsOnSegmentProperty(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		trim := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 1e6)
		}
		s := Segment{A: Vec{trim(ax), trim(ay)}, B: Vec{trim(bx), trim(by)}}
		p := Vec{trim(px), trim(py)}
		cp := s.ClosestPoint(p)
		// The closest point must not be farther than either endpoint.
		d := cp.Dist(p)
		return d <= s.A.Dist(p)+1e-6 && d <= s.B.Dist(p)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
