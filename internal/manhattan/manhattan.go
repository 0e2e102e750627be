// Package manhattan implements Manhattan People, the synthetic virtual
// world of the paper's evaluation (Section V): avatars moving about a
// rectangular area and colliding with walls or other avatars, changing
// direction by 90° whenever they bump into something. The number of
// walls controls the computational complexity per action; the number of
// participants (and their density) controls the expected number of
// conflicts between actions.
package manhattan

import (
	"math"
	"math/rand"
	"sync"

	"seve/internal/geom"
	"seve/internal/spatial"
	"seve/internal/world"
)

// Config carries the workload parameters of Table I.
type Config struct {
	// Width, Height of the virtual world (1000×1000 by default; the
	// Figure 8 density experiment uses 250×250).
	Width, Height float64
	// NumWalls is the wall-count complexity knob (0–100 000).
	NumWalls int
	// WallLength is each wall's length (10 units, Section V-A2).
	WallLength float64
	// NumAvatars is the number of participants; avatar i is object i and
	// belongs to client i.
	NumAvatars int
	// EffectRange is the move-effect range (10 units): the radius within
	// which a move reads other avatars.
	EffectRange float64
	// Visibility is the avatar visibility (30 units): the radius within
	// which walls are "visible" and counted toward move cost.
	Visibility float64
	// Speed is the maximum avatar speed in units per millisecond; the
	// bound s of Equation (1).
	Speed float64
	// StepMs is the move generation period (300 ms per Table I); each
	// move displaces the avatar by Speed×StepMs.
	StepMs float64
	// CollisionDist is the avatar-avatar bump distance.
	CollisionDist float64
	// AvatarRadius is the avatar-wall bump distance.
	AvatarRadius float64

	// Cost model, calibrated to Section V-A2: "clients required an
	// average of 6.95 ms per move, per 1,000 visible walls" and "the
	// time it took for a machine to evaluate a single move was 7.44 ms"
	// at 100 000 walls.
	BaseCostMs      float64
	PerWallCostMs   float64
	PerAvatarCostMs float64

	// Seed drives wall placement and initial avatar placement.
	Seed int64
}

// DefaultConfig returns the Table I parameterization.
func DefaultConfig() Config {
	return Config{
		Width: 1000, Height: 1000,
		NumWalls:        100_000,
		WallLength:      10,
		NumAvatars:      64,
		EffectRange:     10,
		Visibility:      30,
		Speed:           0.01, // 3 units per 300 ms move
		StepMs:          300,
		CollisionDist:   2,
		AvatarRadius:    1,
		BaseCostMs:      0.5,
		PerWallCostMs:   0.00695,
		PerAvatarCostMs: 0,
		Seed:            1,
	}
}

// World is the immutable workload substrate shared by every simulated
// node: the wall set (static geometry is identical at all replicas, like
// the game client's map data) and the configuration. Mutable state —
// avatar tuples — lives in the protocol stores.
type World struct {
	Cfg    Config
	Bounds geom.Rect
	Walls  *spatial.SegmentIndex

	// visCache memoizes visible-wall counts per visibility-sized grid
	// cell, keyed by geom.CellKey. The count only calibrates per-move
	// cost, so cell-center quantization is exact enough; the cache makes
	// the per-move hot path independent of wall density.
	visMu    sync.Mutex
	visCache map[uint64]int
}

// Avatar attribute schema: the high-dimensional tuple of Section III-D.
const (
	AttrX = iota
	AttrY
	AttrDirX
	AttrDirY
	attrCount
)

// NewWorld generates walls and bounds from cfg.
func NewWorld(cfg Config) *World {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bounds := geom.NewRect(cfg.Width, cfg.Height)
	segs := make([]geom.Segment, cfg.NumWalls)
	for i := range segs {
		a := geom.Vec{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
		ang := rng.Float64() * 2 * math.Pi
		dir := geom.Vec{X: math.Cos(ang), Y: math.Sin(ang)}
		b := bounds.Clamp(a.Add(dir.Scale(cfg.WallLength)))
		segs[i] = geom.Segment{A: a, B: b}
	}
	cell := cfg.Visibility
	if cell <= 0 {
		cell = 30
	}
	return &World{
		Cfg:      cfg,
		Bounds:   bounds,
		Walls:    spatial.NewSegmentIndex(segs, cell),
		visCache: make(map[uint64]int),
	}
}

// AvatarID returns the object id of client i's avatar (1-based).
func AvatarID(client int) world.ObjectID { return world.ObjectID(client) }

// InitialState places the avatars. When Spacing > 0 avatars start on a
// grid Spacing units apart (the Figure 8 density setup places them 4
// units apart); otherwise placement is uniform random.
func (w *World) InitialState(spacing float64) *world.State {
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 7))
	st := world.NewState()
	perRow := 1
	if spacing > 0 {
		perRow = int(w.Cfg.Width/spacing) - 1
		if perRow < 1 {
			perRow = 1
		}
	}
	for i := 1; i <= w.Cfg.NumAvatars; i++ {
		var pos geom.Vec
		if spacing > 0 {
			row, col := (i-1)/perRow, (i-1)%perRow
			pos = geom.Vec{X: spacing * float64(col+1), Y: spacing * float64(row+1)}
			pos = w.Bounds.Clamp(pos)
		} else {
			pos = geom.Vec{X: rng.Float64() * w.Cfg.Width, Y: rng.Float64() * w.Cfg.Height}
		}
		ang := rng.Float64() * 2 * math.Pi
		st.Set(AvatarID(i), world.Value{pos.X, pos.Y, math.Cos(ang), math.Sin(ang)})
	}
	return st
}

// InitialStateCrowded places a fraction of the avatars inside the
// lower-left quarter-tile of the world (the crowd) and the rest
// uniformly — the Section II-A zoning stress: "zones collapse if too
// many users crowd into a zone all at once."
func (w *World) InitialStateCrowded(crowdFraction float64) *world.State {
	if crowdFraction < 0 {
		crowdFraction = 0
	}
	if crowdFraction > 1 {
		crowdFraction = 1
	}
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 13))
	st := world.NewState()
	crowd := int(crowdFraction * float64(w.Cfg.NumAvatars))
	for i := 1; i <= w.Cfg.NumAvatars; i++ {
		var pos geom.Vec
		if i <= crowd {
			pos = geom.Vec{X: rng.Float64() * w.Cfg.Width / 4, Y: rng.Float64() * w.Cfg.Height / 4}
		} else {
			pos = geom.Vec{X: rng.Float64() * w.Cfg.Width, Y: rng.Float64() * w.Cfg.Height}
		}
		ang := rng.Float64() * 2 * math.Pi
		st.Set(AvatarID(i), world.Value{pos.X, pos.Y, math.Cos(ang), math.Sin(ang)})
	}
	return st
}

// AvatarPos extracts an avatar's position from its tuple.
func AvatarPos(v world.Value) geom.Vec { return geom.Vec{X: v[AttrX], Y: v[AttrY]} }

// AvatarDir extracts an avatar's heading from its tuple.
func AvatarDir(v world.Value) geom.Vec { return geom.Vec{X: v[AttrDirX], Y: v[AttrDirY]} }

// VisibleWalls counts the walls within visibility of p — the quantity
// the per-move cost model is linear in. The count is quantized to
// visibility-sized grid cells and memoized: it exists solely to
// calibrate compute cost, and avatars re-query the same neighbourhood on
// every 3-unit step. A position geom.CellOf refuses (non-finite, or past
// its ±2³⁰ keys) is counted exactly and not cached.
func (w *World) VisibleWalls(p geom.Vec) int {
	vis := w.Cfg.Visibility
	if vis <= 0 {
		return 0
	}
	cx, cy, ok := geom.CellOf(p, vis)
	if !ok {
		return w.ExactVisibleWalls(p)
	}
	key := geom.CellKey(cx, cy)
	w.visMu.Lock()
	if w.visCache == nil {
		w.visCache = make(map[uint64]int)
	}
	n, ok := w.visCache[key]
	w.visMu.Unlock()
	if ok {
		return n
	}
	center := geom.Vec{X: (float64(cx) + 0.5) * vis, Y: (float64(cy) + 0.5) * vis}
	n = w.Walls.CountWithin(center, vis)
	w.visMu.Lock()
	w.visCache[key] = n
	w.visMu.Unlock()
	return n
}

// ExactVisibleWalls counts the walls within visibility of p without
// quantization, for calibration and tests.
func (w *World) ExactVisibleWalls(p geom.Vec) int {
	return w.Walls.CountWithin(p, w.Cfg.Visibility)
}

// AvgVisibleWalls samples the exact visible-wall count on an n×n grid of
// positions, for calibrating PerWallCostMs to a target per-move cost.
func (w *World) AvgVisibleWalls(n int) float64 {
	if n < 1 {
		n = 1
	}
	sum := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := geom.Vec{
				X: (float64(i) + 0.5) * w.Cfg.Width / float64(n),
				Y: (float64(j) + 0.5) * w.Cfg.Height / float64(n),
			}
			sum += w.ExactVisibleWalls(p)
		}
	}
	return float64(sum) / float64(n*n)
}

// MoveCostMs is the virtual compute cost of evaluating one move that
// sees the given numbers of walls and avatars. It substitutes for the
// paper's deliberately trig-heavy collision code: the protocol
// comparison depends only on how many milliseconds a move costs at
// whichever node evaluates it, so the cost is charged to the simulated
// processor instead of being burned on real trigonometry.
func (w *World) MoveCostMs(visibleWalls, visibleAvatars int) float64 {
	return w.Cfg.BaseCostMs +
		w.Cfg.PerWallCostMs*float64(visibleWalls) +
		w.Cfg.PerAvatarCostMs*float64(visibleAvatars)
}

// NearbyAvatars returns the ids of avatars (other than self) whose
// position in view lies within r of p. A linear scan over the avatar
// universe: avatar count per experiment is ≤ a few thousand and views
// differ per client, so an index would have to be rebuilt per call.
func (w *World) NearbyAvatars(view world.Reader, self world.ObjectID, p geom.Vec, r float64) []world.ObjectID {
	var out []world.ObjectID
	for i := 1; i <= w.Cfg.NumAvatars; i++ {
		id := AvatarID(i)
		if id == self {
			continue
		}
		v, ok := view.Get(id)
		if !ok {
			continue
		}
		if AvatarPos(v).Dist2(p) <= r*r {
			out = append(out, id)
		}
	}
	return out
}

// VisibleAvatarCount reports how many other avatars are within
// visibility — the statistic the paper reports as 6.87 on average for
// the Figure 6 setup and 14.01 for Figure 10.
func (w *World) VisibleAvatarCount(view world.Reader, self world.ObjectID) int {
	v, ok := view.Get(self)
	if !ok {
		return 0
	}
	return len(w.NearbyAvatars(view, self, AvatarPos(v), w.Cfg.Visibility))
}
