package core

import (
	"testing"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// TestFailureToleranceInstallsFromSurvivor: with FailureTolerant set,
// every client that evaluates an action sends a completion. If the
// origin client crashes before completing, a surviving client that
// received the action (via the closure) completes it, and the server
// still installs (Section III-C: "the only case in which the server does
// not receive a response to some action is when all clients that
// evaluate that action have failed").
func TestFailureToleranceInstallsFromSurvivor(t *testing.T) {
	init := initWorld(2)
	cfg := cfgFor(ModeIncomplete)
	cfg.FailureTolerant = true

	srv := NewServer(cfg, init)
	srv.RegisterClient(1, 0)
	srv.RegisterClient(2, 0)
	c1 := NewClient(1, cfg, init)
	c2 := NewClient(2, cfg, init)

	// Client 1 submits an action writing object 1 …
	a1 := &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10}
	a1.id = c1.NextActionID()
	m1, _ := c1.Submit(a1)
	out1 := srv.HandleSubmit(1, m1, 0)
	// … and CRASHES before processing the reply: out1.Replies never
	// reaches c1, no completion is sent.
	_ = out1
	srv.UnregisterClient(1)

	// Client 2 submits a conflicting action; the closure delivers a1.
	a2 := &testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(2), delta: 100}
	a2.id = c2.NextActionID()
	m2, _ := c2.Submit(a2)
	out2 := srv.HandleSubmit(2, m2, 0)
	if len(out2.Replies) != 1 {
		t.Fatalf("replies = %d", len(out2.Replies))
	}
	co := c2.HandleMsg(out2.Replies[0].Msg)
	if len(co.Violations) > 0 {
		t.Fatalf("violations: %v", co.Violations)
	}

	// Client 2's output must include completions for BOTH a1 (failure
	// tolerance) and a2 (its own).
	var seqs []uint64
	for _, m := range co.ToServer {
		if comp, ok := m.(*wire.Completion); ok {
			seqs = append(seqs, comp.Seq)
			srv.HandleCompletion(2, comp)
		}
	}
	if len(seqs) != 2 {
		t.Fatalf("survivor sent %d completions, want 2 (got seqs %v)", len(seqs), seqs)
	}
	if srv.Installed() != 2 {
		t.Fatalf("installed = %d, want 2 despite origin failure", srv.Installed())
	}
	// ζS reflects both actions: obj1 = 1+10 = 11, obj2 = (11+2)+100 = 113.
	v, _ := srv.Authoritative().Get(1)
	if v[0] != 11 {
		t.Fatalf("ζS obj1 = %v, want 11", v)
	}
	v, _ = srv.Authoritative().Get(2)
	if v[0] != 113 {
		t.Fatalf("ζS obj2 = %v, want 113", v)
	}
}

// TestWithoutFailureToleranceOnlyOwnCompletions: the default protocol
// sends completions only for locally originated actions.
func TestWithoutFailureToleranceOnlyOwnCompletions(t *testing.T) {
	init := initWorld(2)
	lb := newLoopback(t, cfgFor(ModeIncomplete), init, 2)
	lb.submit(1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10})
	for lb.stepServer() {
	}
	lb.submit(2, &testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(2), delta: 100})
	lb.drain()
	lb.requireNoViolations()
	// Exactly 2 actions installed via exactly 2 completions.
	if lb.srv.stats.CompletionsTaken != 2 {
		t.Fatalf("completions taken = %d, want 2", lb.srv.stats.CompletionsTaken)
	}
}

// TestUnregisterUnknownClientIsNoOp documents that unregistering twice is
// harmless (disconnect races).
func TestUnregisterUnknownClientIsNoOp(t *testing.T) {
	srv := NewServer(cfgFor(ModeIncomplete), initWorld(1))
	srv.RegisterClient(1, 0)
	srv.UnregisterClient(1)
	srv.UnregisterClient(1)
	srv.UnregisterClient(99)
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterClient did not panic")
		}
	}()
	srv := NewServer(cfgFor(ModeIncomplete), initWorld(1))
	srv.RegisterClient(1, 0)
	srv.RegisterClient(1, 0)
}

// TestDropForUnknownActionIsViolation: a drop notice for an action not
// in the queue is recorded, not silently ignored.
func TestDropForUnknownActionIsViolation(t *testing.T) {
	c := NewClient(1, cfgFor(ModeInfoBound), initWorld(1))
	out := c.HandleDrop(&wire.Drop{ActID: action.ID{Client: 1, Seq: 99}})
	if len(out.Violations) != 1 {
		t.Fatalf("violations = %v", out.Violations)
	}
}
