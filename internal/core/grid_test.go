package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/world"
)

// gridShape is a workload geometry aimed at the entry grid's seams:
// coordinates on a lattice of half the Equation (1) reach (so many pairs
// sit exactly at the reach), on cell edges and one ulp below them,
// negative coordinates, clients and entries without a position, interest
// classes, velocities, NaN, ±Inf and ±1e300 coordinates, non-finite and
// negative radii, and outlier radii late in the run, so earlier ticks keep
// a tight grid: client 7 from the third-last round on (rC outgrows every
// rA), other entries in the last round.
func gridShape(reach, cell float64) workloadShape {
	masks := make(map[int32]uint64)
	for id := int32(1); id <= 24; id++ {
		if id%5 == 0 {
			masks[id] = 1 << 1 // class 1 only
		} else {
			masks[id] = 0
		}
	}
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	return workloadShape{masks: masks, act: func(rng *rand.Rand, round int, cid action.ClientID, a *testAction) action.Action {
		a.class = uint8(rng.Intn(3))
		if cid%8 == 0 {
			return a // never declares a position
		}
		coord := func() float64 {
			k := float64(rng.Intn(17) - 8)
			switch rng.Intn(8) {
			case 0:
				return k * reach / 2
			case 1:
				return k * cell
			case 2:
				return math.Nextafter(k*cell, math.Inf(-1))
			case 3:
				return hostile[rng.Intn(len(hostile))]
			default:
				return (rng.Float64()*2 - 1) * 8 * cell
			}
		}
		r := 5.0
		switch {
		case cid == 7 && round >= engineRounds-3, round == engineRounds-1 && rng.Intn(4) == 0:
			r = 70
		case rng.Intn(10) == 0:
			r = []float64{math.NaN(), math.Inf(1), -30}[rng.Intn(3)]
		}
		spatialAt(a, coord(), coord(), r)
		if rng.Intn(4) == 0 {
			// Up to ±70 units per push interval of staleness: a few cells.
			return &arrow{testAction: a, vel: geom.Vec{X: rng.Float64()*0.6 - 0.3, Y: rng.Float64()*0.6 - 0.3}}
		}
		return a
	}}
}

// TestPushGridEquivalence holds the entry grid to its contract: planning
// pushes from the 3×3 cells around each client produces byte-identical
// replies to testing every window entry, on geometry chosen to break a
// grid, while running strictly fewer eligibility tests.
func TestPushGridEquivalence(t *testing.T) {
	static := firstBoundConfig() // s = 0, r = 5: the reach is exactly 10
	static.InterestFilter = true
	moving := cfgFor(ModeFirstBound)
	moving.AreaCulling, moving.InterestFilter = true, true
	hybrid := static
	hybrid.HybridRelay = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"static", static}, {"culled", moving}, {"hybrid", hybrid}} {
		base := geom.Reach(tc.cfg.MaxSpeed, tc.cfg.Omega, tc.cfg.RTTMs)
		shape := gridShape(base+10, pushCellSide(base, 5, 5))
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%s seed=%d", tc.name, seed)
			trGrid, lbGrid := runShapedWorkload(t, tc.cfg, seed, nil, shape)
			trFull, lbFull := runShapedWorkload(t, tc.cfg, seed, func(s *Server) { s.fullScan = true }, shape)
			diffTraces(t, name, trGrid, trFull)
			g, f := lbGrid.srv.Metrics(), lbFull.srv.Metrics()
			if g.PushGridLookups == 0 {
				t.Fatalf("%s: grid leg never consulted the grid", name)
			}
			if f.PushGridLookups != 0 {
				t.Fatalf("%s: reference leg made %d grid lookups", name, f.PushGridLookups)
			}
			if g.PushTests >= f.PushTests {
				t.Fatalf("%s: grid ran %d eligibility tests, the full scan %d", name, g.PushTests, f.PushTests)
			}
			if tc.cfg.HybridRelay == (lbGrid.relays == 0) {
				t.Fatalf("%s: %d relays", name, lbGrid.relays)
			}
		}
	}
}

// FuzzPushGrid feeds arbitrary coordinates and radii for one client and
// four entries through the grid. Positions come from client-declared
// actions, so a hostile value must degrade to a scan, never to an
// omission: the grid's seeds must equal the entries pushEligible accepts.
func FuzzPushGrid(f *testing.F) {
	f.Add(0.01, 0.0, 0.0, 5.0, 10.0, 0.0, 5.0, -34.3, 0.0, 10.0, 1e300, 0.0, 5.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add(0.0, 10.0, 10.0, 5.0, 20.0, 10.0, 5.0, 0.0, 10.0, 5.0, -10.0, -10.0, 5.0, 10.0, 20.0, 5.0, uint8(0))
	f.Add(0.0, -1.0, 0.0, 0.0, 9.0, 0.0, -30.0, math.NaN(), 0.0, 5.0, math.Inf(1), 0.0, math.Inf(1), 1.0, 1.0, 1e200, uint8(0x41))
	f.Add(0.01, 1.7e308, 0.0, 1e300, -1.7e308, 0.0, 1e300, 0.0, 0.0, 5.0, 1e-310, 0.0, 1e-310, 0.0, 0.0, 0.0, uint8(0))
	// Client and entry on one coordinate beyond the cell keys.
	f.Add(0.0, 1e300, 0.0, 5.0, 1e300, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, uint8(0))
	// A negative radius: Equation (1) squares the bound, so rA = −30
	// reaches 25 units.
	f.Add(0.0, 0.0, 0.0, 5.0, 22.0, 0.0, -30.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, uint8(0))
	// rC outgrows rA: the reach spans 2.5 cells of an rA-only grid.
	f.Add(0.01, 0.0, 0.0, 50.0, 60.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, uint8(0))
	// An arrow (entry 2, culled) projected two cells from where it flew.
	f.Add(0.01, 80.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 25.0, 0.0, 5.0, 0.0, 0.0, 5.0, uint8(0x09))
	f.Fuzz(func(t *testing.T, speed, cx, cy, cr, x0, y0, r0, x1, y1, r1, x2, y2, r2, x3, y3, r3 float64, flags uint8) {
		cfg := cfgFor(ModeFirstBound)
		cfg.MaxSpeed = speed
		cfg.AreaCulling = flags&1 != 0
		s := NewServer(cfg, world.NewState())
		rec := s.recordOf(1)
		s.enlist(rec, clientInfo{pos: geom.Vec{X: cx, Y: cy}, radius: cr, hasPos: flags&2 == 0})
		for k, p := range [][3]float64{{x0, y0, r0}, {x1, y1, r1}, {x2, y2, r2}, {x3, y3, r3}} {
			s.queue = append(s.queue, &entry{
				pos: geom.Vec{X: p[0], Y: p[1]}, radius: p[2],
				hasPos: k != 3 || flags&4 == 0,
				hasVel: k == 2 && flags&8 != 0, vel: geom.Vec{X: p[0], Y: -p[1]},
				stampedMs: float64(k),
			})
		}
		window := []int{0, 1, 2, 3}
		s.buildPushGrid(window, s.live)
		var st walkStats
		got := s.pushSeeds(nil, rec, window, 0, s.scratchFor(0), &st)
		var want []int
		for _, i := range window {
			if s.pushEligible(s.queue[i], &rec.clientInfo, 0) {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("grid seeds %v, pushEligible accepts %v (cell %v, %d grid lookups)",
				got, want, s.grid.cell, st.gridLookups)
		}
	})
}

// TestTickIdleAllocatesNothing: Tick keeps its window, grid, groups and
// plan scratch across ticks, so a tick whose window pushes nothing
// allocates nothing — with every client its own group or under
// HybridRelay's cells.
func TestTickIdleAllocatesNothing(t *testing.T) {
	for _, hybrid := range []bool{false, true} {
		cfg := firstBoundConfig()
		cfg.HybridRelay = hybrid
		lb := newLoopback(t, cfg, initWorld(8), 5)
		lb.nowMs = 10
		// Clients 1–3 out of each other's reach (10), two of them in
		// adjacent cells so the grid hands them each other's entries to
		// test; client 5 beside client 2, in its relay cell; and client 4
		// with no position, which the first tick sends everything.
		for cid, x := range map[action.ClientID]float64{1: 0, 2: 1005, 3: 1016, 5: 1007} {
			id := world.ObjectID(cid)
			lb.submit(cid, spatialAt(&testAction{rs: world.NewIDSet(id), ws: world.NewIDSet(id), delta: 1}, x, 1000, 5))
		}
		for lb.stepServer() {
		}
		start, now := lb.srv.lastPushMs, lb.nowMs+238
		lb.srv.Tick(now)
		if hybrid != (len(lb.srv.groups) < len(lb.srv.live)) {
			t.Fatalf("hybrid=%v: %d groups for %d clients", hybrid, len(lb.srv.groups), len(lb.srv.live))
		}
		before := lb.srv.Metrics()
		allocs := testing.AllocsPerRun(20, func() {
			lb.srv.lastPushMs = start
			if out := lb.srv.Tick(now); len(out.Replies) != 0 {
				t.Fatalf("hybrid=%v: idle tick pushed %d replies", hybrid, len(out.Replies))
			}
		})
		after := lb.srv.Metrics()
		if after.PushTicks == before.PushTicks || after.PushGridLookups == before.PushGridLookups ||
			after.PushTests == before.PushTests {
			t.Fatalf("hybrid=%v: the measured ticks never planned through the grid: %d ticks, %d lookups, %d tests", hybrid,
				after.PushTicks-before.PushTicks, after.PushGridLookups-before.PushGridLookups, after.PushTests-before.PushTests)
		}
		if allocs != 0 {
			t.Fatalf("hybrid=%v: idle tick allocated %.1f times", hybrid, allocs)
		}
	}
}
