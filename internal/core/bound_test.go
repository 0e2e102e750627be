package core

import (
	"testing"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/world"
)

// firstBoundConfig keeps the spheres small so reachability is easy to
// reason about: s=0 means Eq (1) degenerates to rA + rC.
func firstBoundConfig() Config {
	cfg := cfgFor(ModeFirstBound)
	cfg.MaxSpeed = 0
	cfg.DefaultRadius = 5
	return cfg
}

// TestFirstBoundPushesNearbyAction: a queued action within the influence
// bound of a client is pushed proactively at the next tick, without the
// client submitting anything.
func TestFirstBoundPushesNearbyAction(t *testing.T) {
	init := initWorld(4)
	lb := newLoopback(t, firstBoundConfig(), init, 2)

	// Client 2 announces its position by submitting a spatial action at
	// (0, 0) with radius 5.
	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}, 0, 0, 5))
	lb.drain()

	// Client 1 acts at distance 8 with radius 5: 8 ≤ 5+5, reachable.
	lb.nowMs += 10 // strictly inside the first push window
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 8, 0, 5))
	for lb.stepServer() {
	}
	before := lb.clients[2].AppliedRemote()
	lb.nowMs += 238 // one push interval (ω·RTT = 0.5·476)
	lb.tick()
	lb.drain()
	lb.requireNoViolations()
	if lb.clients[2].AppliedRemote() != before+1 {
		t.Fatalf("client 2 applied %d remote actions after push, want %d",
			lb.clients[2].AppliedRemote(), before+1)
	}
	lb.checkAgainstOracle(init)
}

// TestFirstBoundSkipsFarAction: an action outside the Equation (1)
// sphere is not pushed.
func TestFirstBoundSkipsFarAction(t *testing.T) {
	init := initWorld(4)
	lb := newLoopback(t, firstBoundConfig(), init, 2)
	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}, 0, 0, 5))
	lb.drain()

	// Distance 100 > 5+5: unreachable.
	lb.nowMs += 10
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 100, 0, 5))
	for lb.stepServer() {
	}
	lb.nowMs += 238
	lb.tick()
	lb.drain()
	lb.requireNoViolations()
	if lb.clients[2].AppliedRemote() != 0 {
		t.Fatalf("far action pushed: client 2 applied %d", lb.clients[2].AppliedRemote())
	}
}

// TestFirstBoundNoRepush: an action pushed once is not pushed again at
// the next tick (sent bookkeeping), and a later closure reply does not
// resend it either.
func TestFirstBoundNoRepush(t *testing.T) {
	init := initWorld(4)
	lb := newLoopback(t, firstBoundConfig(), init, 2)
	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(2), delta: 1}, 0, 0, 5))
	lb.drain()

	lb.nowMs += 10
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 3, 0, 5))
	for lb.stepServer() {
	}
	lb.nowMs += 238
	lb.tick()
	lb.drain()
	after1 := lb.clients[2].AppliedRemote()
	lb.nowMs += 238
	lb.tick()
	lb.drain()
	if lb.clients[2].AppliedRemote() != after1 {
		t.Fatal("action re-pushed at second tick")
	}
	// A closure reply for a conflicting submission must also skip it.
	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(2), delta: 2}, 0, 0, 5))
	lb.drain()
	lb.requireNoViolations()
	if lb.clients[2].AppliedRemote() != after1 {
		t.Fatal("already-pushed action resent in closure reply")
	}
	lb.checkAgainstOracle(init)
}

// TestFirstBoundWindow: only actions stamped within the push window are
// push candidates; older unsent ones are left for closures.
func TestFirstBoundWindow(t *testing.T) {
	init := initWorld(4)
	lb := newLoopback(t, firstBoundConfig(), init, 2)
	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}, 0, 0, 5))
	lb.drain()

	lb.nowMs = 1000
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 3, 0, 5))
	for lb.stepServer() {
	}
	// First tick consumes the window (pushes it).
	lb.nowMs = 1238
	lb.tick()
	lb.drain()
	got1 := lb.clients[2].AppliedRemote()
	if got1 != 1 {
		t.Fatalf("in-window action not pushed: %d", got1)
	}
	lb.requireNoViolations()
}

// TestInterestFilterSkipsClass: with InterestFilter enabled, pushes skip
// actions whose class the client did not subscribe to (Section IV-A) —
// the paper's humans-need-not-track-insects example. Closure replies are
// never filtered, so consistency of submissions is unaffected.
func TestInterestFilterSkipsClass(t *testing.T) {
	init := initWorld(4)
	cfg := firstBoundConfig()
	cfg.InterestFilter = true
	// Client 2 subscribes only to class 1 ("humans"); class 2 is
	// "insects".
	lb := newLoopbackMasks(t, cfg, init, map[int32]uint64{1: 0, 2: 1 << 1})

	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}, 0, 0, 5))
	lb.drain()

	// An insect-class action right next to client 2: spatially reachable
	// but filtered by interest.
	lb.nowMs += 10
	insect := spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 1, 0, 5)
	insect.class = 2
	lb.submit(1, insect)
	for lb.stepServer() {
	}
	lb.nowMs += 238
	lb.tick()
	lb.drain()
	if lb.clients[2].AppliedRemote() != 0 {
		t.Fatalf("insect action pushed to uninterested client: %d", lb.clients[2].AppliedRemote())
	}

	// A human-class action is pushed.
	lb.nowMs += 10
	human := spatialAt(&testAction{rs: world.NewIDSet(3), ws: world.NewIDSet(3), delta: 1}, 1, 0, 5)
	human.class = 1
	lb.submit(1, human)
	for lb.stepServer() {
	}
	lb.nowMs += 238
	lb.tick()
	lb.drain()
	lb.requireNoViolations()
	if lb.clients[2].AppliedRemote() != 1 {
		t.Fatalf("human action not pushed: %d", lb.clients[2].AppliedRemote())
	}
	lb.checkAgainstOracle(init)
}

// arrow is a directed test action for area culling: its influence point
// moves along a velocity vector (Section IV-B).
type arrow struct {
	*testAction
	vel geom.Vec
}

func (a *arrow) Motion() geom.Vec { return a.vel }

// submitAction lets tests submit any action type through the harness.
func (lb *loopback) submitAction(cid action.ClientID, a action.Action, setID func(action.ID)) {
	c := lb.clients[cid]
	setID(c.NextActionID())
	msg, _ := c.Submit(a)
	lb.toServer = append(lb.toServer, fromMsg{from: cid, msg: msg})
	lb.submitted++
}

func TestAreaCullingDirectionFull(t *testing.T) {
	mk := func(velX float64) (int, int) {
		init := initWorld(4)
		cfg := firstBoundConfig()
		cfg.AreaCulling = true
		cfg.MaxSpeed = 0.001
		lb := newLoopback(t, cfg, init, 2)
		lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}, 100, 0, 5))
		lb.drain()

		// Arrow released at (50, 0), 50 units from client 2: outside the
		// static bound (rC = 5 plus 2s(1+ω)RTT ≈ 1.4), so only the
		// velocity projection can bring it into reach.
		lb.nowMs += 10
		a := &arrow{vel: geom.Vec{X: velX, Y: 0}}
		a.testAction = spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 50, 0, 5)
		lb.submitAction(1, a, func(id action.ID) { a.id = id })
		for lb.stepServer() {
		}
		lb.nowMs += 238
		lb.tick()
		lb.drain()
		lb.requireNoViolations()
		return lb.clients[2].AppliedRemote(), lb.srv.TotalSubmitted()
	}

	// The server projects the arrow over dt = stamp time − client
	// position time ≈ 10 ms. At 4.5 units/ms that is ±45 units: an
	// approaching arrow (+x, toward the client at (100,0)) projects to
	// (95,0), within reach; a receding one projects to (5,0), far out.
	recedingApplied, _ := mk(-4.5)
	approachingApplied, _ := mk(4.5)
	if recedingApplied != 0 {
		t.Fatalf("receding arrow was pushed: applied=%d", recedingApplied)
	}
	if approachingApplied != 1 {
		t.Fatalf("approaching arrow not pushed: applied=%d", approachingApplied)
	}
}
