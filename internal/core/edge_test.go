package core

import (
	"strings"
	"testing"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// Edge-path tests: malformed traffic, misconfigured engines, and the
// defensive recoveries that must not corrupt protocol state.

func TestNewServerPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config accepted")
		}
	}()
	cfg := DefaultConfig()
	cfg.Omega = 2
	NewServer(cfg, world.NewState())
}

func TestServerIgnoresUnknownMessageType(t *testing.T) {
	srv := NewServer(cfgFor(ModeIncomplete), initWorld(1))
	srv.RegisterClient(1, 0)
	out := srv.HandleMsg(1, &wire.Hello{}, 0)
	if len(out.Replies) != 0 || out.Dropped {
		t.Fatalf("unknown message produced output: %+v", out)
	}
}

func TestClientRejectsUnexpectedMessage(t *testing.T) {
	c := NewClient(1, cfgFor(ModeIncomplete), initWorld(1))
	out := c.HandleMsg(&wire.Hello{})
	if len(out.Violations) != 1 || !strings.Contains(out.Violations[0], "unexpected message") {
		t.Fatalf("violations = %v", out.Violations)
	}
}

func TestClientIDAndAccessors(t *testing.T) {
	c := NewClient(7, cfgFor(ModeBasic), initWorld(1))
	if c.ID() != 7 {
		t.Fatalf("ID = %d", c.ID())
	}
	if c.QueueLen() != 0 || c.Reconciliations() != 0 || c.AppliedRemote() != 0 || c.AppliedBlind() != 0 {
		t.Fatal("fresh client has non-zero counters")
	}
}

func TestServerCounters(t *testing.T) {
	lb := newLoopback(t, cfgFor(ModeIncomplete), initWorld(2), 2)
	lb.submit(1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1})
	for lb.stepServer() {
	}
	lb.submit(2, &testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(2), delta: 1})
	lb.drain()
	if lb.srv.TotalSubmitted() != 2 {
		t.Fatalf("submitted = %d", lb.srv.TotalSubmitted())
	}
	if lb.srv.TotalQueueScans() == 0 {
		t.Fatal("no queue scans recorded despite a conflicting closure")
	}
	if len(lb.srv.DroppedByClient()) != 0 {
		t.Fatal("phantom drops")
	}
}

// TestOwnActionOutOfOrderRecovery: if the transport misdelivers a
// client's own action while its queue head is different, the client
// records a violation but still applies the action to the stable state,
// preserving convergence.
func TestOwnActionOutOfOrderRecovery(t *testing.T) {
	cfg := cfgFor(ModeBasic)
	c := NewClient(1, cfg, initWorld(1))
	// Forge an envelope that claims to be c's own action but was never
	// submitted.
	forged := &testAction{id: action.ID{Client: 1, Seq: 42}, rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 5}
	out := c.HandleBatch(&wire.Batch{Envs: []action.Envelope{{Seq: 1, Origin: 1, Act: forged}}})
	if len(out.Violations) == 0 {
		t.Fatal("out-of-order own action not flagged")
	}
	// The stable state still advanced (handled as remote).
	v, _ := c.Stable().Get(1)
	if v[0] != 6 {
		t.Fatalf("stable = %v, want 6", v)
	}
}

// TestStrictModeFlagsRogueAction: an action whose Apply touches objects
// outside its declared sets is reported, because undeclared accesses
// silently break the closure analysis.
func TestStrictModeFlagsRogueAction(t *testing.T) {
	lb := newLoopback(t, cfgFor(ModeIncomplete), initWorld(3), 1)
	rogue := &rogueAction{testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}}
	lb.submit2(1, rogue, func(id action.ID) { rogue.id = id })
	lb.drain()
	if len(lb.violations) == 0 {
		t.Fatal("rogue access not flagged in strict mode")
	}
}

// rogueAction reads an undeclared object during Apply.
type rogueAction struct{ testAction }

func (a *rogueAction) Apply(tx *world.Tx) bool {
	tx.Read(3) // undeclared on purpose: this fixture proves strict mode flags it
	return a.testAction.Apply(tx)
}

// submit2 submits an arbitrary action type through the loopback.
func (lb *loopback) submit2(cid action.ClientID, a action.Action, setID func(action.ID)) {
	c := lb.clients[cid]
	setID(c.NextActionID())
	msg, _ := c.Submit(a)
	lb.toServer = append(lb.toServer, fromMsg{from: cid, msg: msg})
	lb.submitted++
}

// TestBasicModeIgnoresCompletions: Algorithm 2's server has no ζS; stray
// completions must be no-ops.
func TestBasicModeIgnoresCompletions(t *testing.T) {
	srv := NewServer(cfgFor(ModeBasic), initWorld(1))
	srv.RegisterClient(1, 0)
	out := srv.HandleCompletion(1, &wire.Completion{Seq: 1, By: 1, Res: action.Result{OK: true}})
	if len(out.Replies) != 0 {
		t.Fatal("basic-mode completion produced replies")
	}
	if srv.Installed() != 0 {
		t.Fatal("basic-mode server installed something")
	}
}

// TestCompletionBelowInstalledIgnored: duplicates of already-installed
// actions (failure-tolerant redundancy) are dropped.
func TestCompletionBelowInstalledIgnored(t *testing.T) {
	lb := newLoopback(t, cfgFor(ModeIncomplete), initWorld(1), 1)
	lb.submit(1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1})
	lb.drain()
	if lb.srv.Installed() != 1 {
		t.Fatalf("installed = %d", lb.srv.Installed())
	}
	digest := lb.srv.Authoritative().Digest()
	lb.srv.HandleCompletion(1, &wire.Completion{Seq: 1, By: 1, Res: action.Result{OK: true,
		Writes: []world.Write{{ID: 1, Val: world.Value{999}}}}})
	if lb.srv.Authoritative().Digest() != digest {
		t.Fatal("stale completion mutated ζS")
	}
}

// TestAbortedStableActionInstallsNothing: a committed-optimistically but
// stably-aborted action contributes no writes to ζS.
func TestAbortedStableActionInstallsNothing(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	cfg.Strict = false // the abort path legitimately reads a missing object
	lb := newLoopback(t, cfg, initWorld(1), 2)
	// Client 1 deletes... there is no delete action; instead client 2
	// submits an action whose read set includes a nonexistent object so
	// both optimistic and stable evaluations abort.
	lb.submit(2, &testAction{rs: world.NewIDSet(99), ws: world.NewIDSet(99), delta: 1})
	lb.drain()
	if lb.srv.Installed() != 1 {
		t.Fatalf("installed = %d (aborts still occupy serial positions)", lb.srv.Installed())
	}
	if _, ok := lb.srv.Authoritative().Get(99); ok {
		t.Fatal("aborted action created an object")
	}
	if len(lb.commits) != 1 || lb.commits[0].Res.OK {
		t.Fatalf("commits = %+v", lb.commits)
	}
}

func TestPushIntervalMs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Omega, cfg.RTTMs = 0.5, 400
	if got := cfg.PushIntervalMs(); got != 200 {
		t.Fatalf("PushIntervalMs = %v", got)
	}
}

// TestAppliedSizedOncePerBatch: ClientOutput.Applied is made once, on a
// batch's first remote envelope, with room for every envelope of the
// batch; a batch carrying only the client's own actions leaves it nil.
func TestAppliedSizedOncePerBatch(t *testing.T) {
	c := NewClient(1, cfgFor(ModeBasic), initWorld(2))
	own := &testAction{id: action.ID{Client: 1, Seq: 1}, rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}
	c.Submit(own)
	if out := c.HandleBatch(&wire.Batch{Envs: []action.Envelope{{Seq: 1, Origin: 1, Act: own}}}); out.Applied != nil || len(out.Commits) != 1 {
		t.Fatalf("own-only batch: Applied %v (cap %d), %d commits", out.Applied, cap(out.Applied), len(out.Commits))
	}
	envs := []action.Envelope{}
	for i := uint32(1); i <= 3; i++ {
		envs = append(envs, action.Envelope{Seq: uint64(i) + 1, Origin: 2,
			Act: &testAction{id: action.ID{Client: 2, Seq: i}, rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}})
	}
	if out := c.HandleBatch(&wire.Batch{Envs: envs}); len(out.Applied) != 3 || cap(out.Applied) != 3 {
		t.Fatalf("remote batch: Applied len %d cap %d, want 3 and 3", len(out.Applied), cap(out.Applied))
	}
}
