// Package geom provides the 2-D geometry used by the Manhattan People
// workload and by the influence-sphere bounds of Sections III-D and IV-B.
//
// The paper treats the virtual world as a high-dimensional database whose
// spatial attributes change at a bounded rate; the two spatial dimensions
// here are the x, y of avatars and walls, and the same Vec type doubles as
// the velocity vectors of Section IV-B (area culling).
package geom

import "math"

// Vec is a 2-D point or vector.
type Vec struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean norm of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared Euclidean norm of v, avoiding the square root
// in the hot distance comparisons of Equation (1).
func (v Vec) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the distance between points v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared distance between points v and w.
func (v Vec) Dist2(w Vec) float64 { return v.Sub(w).Len2() }

// Normalize returns the unit vector in the direction of v, or the zero
// vector if v is zero.
func (v Vec) Normalize() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return v.Scale(1 / l)
}

// Rotate90 returns v rotated 90 degrees counterclockwise: the direction
// change a Manhattan People avatar makes when it bumps into a wall.
func (v Vec) Rotate90() Vec { return Vec{-v.Y, v.X} }

// Segment is a wall: a line segment between two points (walls in the
// Manhattan People world have length 10, Table I).
type Segment struct {
	A, B Vec
}

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment's midpoint.
func (s Segment) Midpoint() Vec { return s.A.Add(s.B).Scale(0.5) }

// ClosestPoint returns the point on the segment nearest to p.
func (s Segment) ClosestPoint(p Vec) Vec {
	d := s.B.Sub(s.A)
	l2 := d.Len2()
	if l2 == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.A.Add(d.Scale(t))
}

// DistTo returns the distance from p to the segment.
func (s Segment) DistTo(p Vec) float64 {
	return s.ClosestPoint(p).Dist(p)
}

// IntersectsCircle reports whether the segment comes within r of center —
// the wall-collision test that Manhattan People move evaluation performs
// against every visible wall.
func (s Segment) IntersectsCircle(center Vec, r float64) bool {
	return s.DistTo(center) <= r
}

// Circle is a ball of influence: an action's maximum area of effect
// (center p̄A, radius rA in the notation of Section III-D).
type Circle struct {
	Center Vec
	R      float64
}

// Contains reports whether p lies inside or on the circle.
func (c Circle) Contains(p Vec) bool {
	return c.Center.Dist2(p) <= c.R*c.R
}

// Intersects reports whether two circles overlap or touch.
func (c Circle) Intersects(o Circle) bool {
	rr := c.R + o.R
	return c.Center.Dist2(o.Center) <= rr*rr
}

// Expand returns the circle grown by dr (dr may be negative; the radius is
// clamped at zero).
func (c Circle) Expand(dr float64) Circle {
	r := c.R + dr
	if r < 0 {
		r = 0
	}
	return Circle{Center: c.Center, R: r}
}

// Rect is an axis-aligned rectangle, used for the world bounds (1000×1000
// in Table I, 250×250 in the Figure 8 density experiment).
type Rect struct {
	Min, Max Vec
}

// NewRect returns the rectangle [0,w] × [0,h].
func NewRect(w, h float64) Rect {
	return Rect{Min: Vec{0, 0}, Max: Vec{w, h}}
}

// Contains reports whether p lies inside or on the rectangle.
func (r Rect) Contains(p Vec) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Vec) Vec {
	if p.X < r.Min.X {
		p.X = r.Min.X
	} else if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	} else if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Reach is the motion term of Equation (1), 2s·(1+ω)·RTT: how far apart
// two objects moving at up to s can start and still meet within
// (1+ω)·RTT. Every neighbourhood the engine draws is this plus radii.
func Reach(s, omega, rttMs float64) float64 { return 2 * s * (1 + omega) * rttMs }

// InfluenceReachable implements Equation (1) of the First Bound Model: an
// action at pA with influence radius rA can affect a future action of a
// client at pC with action radius rC within (1+ω)·RTT if and only if
//
//	‖p̄A − p̄C‖ ≤ 2s·(1+ω)·RTT + rC + rA
//
// where s is the maximum object speed (units per ms here, with rtt in ms).
func InfluenceReachable(pA, pC Vec, rA, rC, s, omega, rttMs float64) bool {
	bound := Reach(s, omega, rttMs) + rC + rA
	return pA.Dist2(pC) <= bound*bound
}

// MovingInfluenceReachable implements the area-culling refinement of
// Section IV-B: the action's influence is a moving point p̄M + v̄M·(tM−tC)
// rather than a static sphere, so directed actions (arrows, projectiles)
// conflict with far fewer clients:
//
//	‖p̄M + v̄M×(tM−tC) − p̄C‖ ≤ 2s·(1+ω)·RTT + rC
func MovingInfluenceReachable(pM, vM, pC Vec, rC, s, omega, rttMs, dtMs float64) bool {
	proj := pM.Add(vM.Scale(dtMs))
	bound := Reach(s, omega, rttMs) + rC
	return proj.Dist2(pC) <= bound*bound
}

// cellKeyLimit bounds |coordinate / cell| so a cell index and its
// neighbours fit an int32.
const cellKeyLimit = 1 << 30

// CellOf places p in the square cells of side cell, or reports false when
// p is non-finite or its cell index would leave ±2³⁰ (or cell is not a
// number). It is the engine's one cell function: the push grid, the relay
// cells and the shard lanes all key positions through it, and a position
// it refuses takes each caller's unplaced path.
func CellOf(p Vec, cell float64) (cx, cy int32, ok bool) {
	qx, qy := p.X/cell, p.Y/cell
	if !(math.Abs(qx) < cellKeyLimit && math.Abs(qy) < cellKeyLimit) {
		return 0, 0, false
	}
	return int32(math.Floor(qx)), int32(math.Floor(qy)), true
}

// CellKey orders cells by column, then row: a column's rows cy−1…cy+1
// are one contiguous key range. No key of a CellOf index is MaxUint64.
func CellKey(cx, cy int32) uint64 {
	return uint64(uint32(cx)^1<<31)<<32 | uint64(uint32(cy)^1<<31)
}
