package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

func hybridConfig() Config {
	cfg := firstBoundConfig()
	cfg.HybridRelay = true
	return cfg
}

func TestHybridRequiresFirstBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeIncomplete
	cfg.HybridRelay = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("hybrid relay accepted below ModeFirstBound")
	}
}

// TestHybridRelayDelegatesFanOut: two clients in the same neighbourhood
// cell receive a push as ONE server message — a Relay to the first,
// which forwards the inner batch to the second.
func TestHybridRelayDelegatesFanOut(t *testing.T) {
	init := initWorld(6)
	lb := newLoopback(t, hybridConfig(), init, 3)

	// Clients 2 and 3 stand together at (100, 0); client 1 acts nearby.
	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}, 100, 0, 5))
	lb.submit(3, spatialAt(&testAction{rs: world.NewIDSet(3), ws: world.NewIDSet(3), delta: 1}, 101, 0, 5))
	lb.drain()

	lb.nowMs += 10
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 98, 0, 5))
	for lb.stepServer() {
	}
	lb.nowMs += 238
	out := lb.srv.Tick(lb.nowMs)

	// One Relay covering both cell-mates, not two Batches.
	var relays, batches int
	for _, rep := range out.Replies {
		switch m := rep.Msg.(type) {
		case *wire.Relay:
			relays++
			if len(m.Targets) != 2 {
				t.Fatalf("relay targets = %v", m.Targets)
			}
		case *wire.Batch:
			batches++
		}
		lb.toClient[rep.To] = append(lb.toClient[rep.To], rep.Msg)
	}
	if relays != 1 {
		t.Fatalf("relays = %d, want 1 (batches %d)", relays, batches)
	}
	lb.drain()
	lb.requireNoViolations()
	// Both cell-mates applied client 1's action exactly once.
	if lb.clients[2].AppliedRemote() != 1 || lb.clients[3].AppliedRemote() != 1 {
		t.Fatalf("applied: c2=%d c3=%d, want 1/1",
			lb.clients[2].AppliedRemote(), lb.clients[3].AppliedRemote())
	}
	lb.checkAgainstOracle(init)
}

// TestHybridSharedBatchSkipsOwnAction: when a cell-mate's own submission
// rides in the shared push batch, that client ignores the pushed copy
// and commits via its closure reply, exactly once.
func TestHybridSharedBatchSkipsOwnAction(t *testing.T) {
	init := initWorld(6)
	lb := newLoopback(t, hybridConfig(), init, 2)
	// Both clients in one cell; establish positions.
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 50, 0, 5))
	lb.submit(2, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1}, 52, 0, 5))
	lb.drain()
	commits0 := len(lb.commits)

	// Client 1 submits; the reply is IN FLIGHT when the push tick fires,
	// so the shared batch to the cell includes client 1's own action.
	lb.nowMs += 10
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 2}, 50, 0, 5))
	for lb.stepServer() {
	}
	lb.nowMs += 238
	lb.tick()
	lb.drain()
	lb.requireNoViolations()
	if got := len(lb.commits) - commits0; got != 1 {
		t.Fatalf("client 1's action committed %d times, want exactly 1", got)
	}
	lb.checkAgainstOracle(init)
}

// TestHybridHostilePositionsRelayAlone: an avatar whose declared position
// the relay cells cannot place — NaN, +Inf, or beyond the cell keys — is
// served alone, never under a relay beside strangers, while two normal
// cell-mates still share one.
func TestHybridHostilePositionsRelayAlone(t *testing.T) {
	init := initWorld(8)
	lb := newLoopback(t, hybridConfig(), init, 5)
	for cid, x := range map[action.ClientID]float64{1: 100, 2: 101, 3: math.NaN(), 4: math.Inf(1), 5: 1e300} {
		id := world.ObjectID(cid)
		lb.submit(cid, spatialAt(&testAction{rs: world.NewIDSet(id), ws: world.NewIDSet(id), delta: 1}, x, 0, 5))
	}
	lb.drain()

	// A position-less action is eligible for every client.
	lb.nowMs += 10
	a := &testAction{rs: world.NewIDSet(6), ws: world.NewIDSet(6), delta: 1}
	lb.submitAction(1, nowhere{a}, func(id action.ID) { a.id = id })
	for lb.stepServer() {
	}
	lb.nowMs += 238
	out := lb.srv.Tick(lb.nowMs)
	served := map[action.ClientID]bool{}
	for _, rep := range out.Replies {
		switch m := rep.Msg.(type) {
		case *wire.Relay:
			if !slices.Equal(m.Targets, []action.ClientID{1, 2}) {
				t.Fatalf("relay targets %v, want the cell-mates [1 2]", m.Targets)
			}
		case *wire.Batch:
			served[rep.To] = true
		}
		lb.toClient[rep.To] = append(lb.toClient[rep.To], rep.Msg)
	}
	for cid := action.ClientID(3); cid <= 5; cid++ {
		if !served[cid] {
			t.Fatalf("client %d with a hostile position got no batch of its own: %v", cid, out.Replies)
		}
	}
	lb.drain()
	lb.requireNoViolations()
	lb.checkAgainstOracle(init)
}

// nowhere hides an action's spatial metadata: embedding the interface
// promotes only action.Action's methods, so its entry has no position.
type nowhere struct{ action.Action }

// TestTheorem1PropertyHybrid: the full randomized consistency check with
// hybrid relays on — relayed supersets and duplicate deliveries must not
// break serializability.
func TestTheorem1PropertyHybrid(t *testing.T) {
	f := func(seed int64) bool {
		randomRunWith(t, seed, func(cfg *Config) {
			cfg.Mode = ModeFirstBound
			cfg.HybridRelay = true
		})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
