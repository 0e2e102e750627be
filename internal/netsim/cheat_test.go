package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/integrity"
	"seve/internal/oracletest"
	"seve/internal/sim"
	"seve/internal/wire"
	"seve/internal/world"
)

// The cheat-injection matrix, the proof layer for the DESIGN.md §16
// integrity subsystem: honest clients share the simulated network with
// one cheater whose uplink is rewritten in flight (honest software,
// dishonest wire: the untrusted-client threat model). Each cheat class
// runs across shard counts and seeds; the harness measures detection
// latency in flush epochs, asserts the verdict names the right violation
// (the server hangs the cheater up once its verdict frame is written),
// and re-runs the Theorem 1 oracle and the effective-log replay.

// Every cheat run has five clients, the last the cheater, over twelve
// objects.
const nClients, nObjects, cheaterID = 5, 12, action.ClientID(5)

// cheatEpochMs is the flush cadence of the cheat schedule; detection
// latency is reported in these epochs.
const cheatEpochMs = 10

// cheatRun carries the observables a cheat scenario produces.
type cheatRun struct {
	h *churnHarness
	// firstCheatMs is the kernel time the first tampered message was
	// forwarded to the server; detectMs the time the verdict frame
	// reached the cheater; reason its violation code.
	firstCheatMs float64
	detectMs     float64
	detected     bool
	reason       uint8
	tampered     int
}

// playCheat drives a churn-free submission schedule: every client
// submits on its own cadence, the epoch flush runs every cheatEpochMs,
// and the tamper hook (installed by the caller before this runs)
// rewrites the cheater's uplink. Honest clients draw footprints from
// 1..honestHi, the cheater from cheatLo..cheatHi. The tail is long
// enough for every in-flight exchange — verdicts included — to drain.
func playCheat(h *churnHarness, seed int64, honestHi, cheatLo, cheatHi int) {
	rng := rand.New(rand.NewSource(seed))
	k := h.k

	const horizon = 1200
	for ms := sim.Time(1); ms < horizon; ms += cheatEpochMs {
		k.At(ms, h.flush)
	}
	for step := 0; step < 40; step++ {
		at := sim.Time(step * 15)
		k.At(at, func() {
			for _, cid := range h.order {
				cl := h.clients[cid]
				if rng.Float64() >= 0.6 {
					continue
				}
				if cid == cheaterID {
					h.submit(cl, rng, cheatLo, cheatHi)
				} else {
					h.submit(cl, rng, 1, honestHi)
				}
			}
		})
	}
	k.Run()
}

// newCheatRun builds the harness and wires the detection probes: the
// downlink trace captures the verdict's arrival at the cheater.
func newCheatRun(t *testing.T, cfg core.Config) *cheatRun {
	h := newChurnHarness(t, cfg, nClients, nObjects, nil)
	run := &cheatRun{h: h}
	h.trace = func(cl *churnClient, msg wire.Msg) {
		if q, ok := msg.(*wire.Quarantine); ok && cl.id == cheaterID && !run.detected {
			run.detected = true
			run.detectMs = float64(h.k.Now())
			run.reason = q.Reason
		}
	}
	return run
}

// markCheat records the forwarding time of a tampered message.
func (r *cheatRun) markCheat() {
	if r.tampered == 0 {
		r.firstCheatMs = float64(r.h.k.Now())
	}
	r.tampered++
}

// forge installs the tamper that rewrites each of the cheater's
// completions that carries writes through edit, on a copy.
func (r *cheatRun) forge(edit func(co *wire.Completion)) {
	r.h.tamper = func(cl *churnClient, msg wire.Msg) wire.Msg {
		co, ok := msg.(*wire.Completion)
		if !ok || cl.id != cheaterID || len(co.Res.Writes) == 0 {
			return msg
		}
		forged := *co
		forged.Res = co.Res.Clone()
		edit(&forged)
		r.markCheat()
		return &forged
	}
}

// detectionEpochs is the verdict latency in flush epochs.
func (r *cheatRun) detectionEpochs() float64 {
	return (r.detectMs - r.firstCheatMs) / cheatEpochMs
}

// verifyCheatRun re-runs the Theorem 1 oracle on a run with exactly one
// cheater: ζS must equal the omniscient serial replay of the recorded
// history (repairs and self-completions keep it on the serial
// trajectory), and every honest client is held to verifyClients.
//
// honestObjects > 0 restricts the state comparison to objects
// 1..honestObjects: at a partial audit rate an unsampled tampered
// install legitimately poisons the objects the cheater owns until
// detection cuts it off, so only the honest region is required to track
// the oracle exactly.
func verifyCheatRun(t *testing.T, r *cheatRun, wantQuarantine bool, honestObjects int) {
	h := r.h
	oracle := oracletest.Replay(h.init, drained(t, h, 0))
	if honestObjects == 0 {
		requireSerial(t, h, oracle)
	}
	h.hub.Engine(func(eng core.Engine) {
		for i := 1; i <= honestObjects; i++ {
			got, _ := eng.Authoritative().Get(world.ObjectID(i))
			if want, _ := oracle.Final().Get(world.ObjectID(i)); !got.Equal(want) {
				t.Fatalf("honest object %d = %v diverged from serial oracle %v", i, got, want)
			}
		}
	})

	verifyClients(t, h, oracle, slices.DeleteFunc(slices.Clone(h.order), func(id action.ClientID) bool { return id == cheaterID }))

	ss := h.hub.Metrics()
	if wantQuarantine {
		if !r.detected {
			t.Fatalf("cheater never received a verdict (%d tampered messages): %+v", r.tampered, ss)
		}
		if ss.QuarantinedClients != 1 {
			t.Fatalf("QuarantinedClients = %d, want exactly the cheater", ss.QuarantinedClients)
		}
		if rr, ok := h.clients[cheaterID].engine.Quarantined(); !ok || rr != r.reason {
			t.Fatalf("cheater engine latch = (%d,%v), verdict said %d", rr, ok, r.reason)
		}
	} else if ss.QuarantinedClients != 0 {
		t.Fatalf("QuarantinedClients = %d, want 0 for this cheat class", ss.QuarantinedClients)
	}
}

// cheatMatrix runs one cheat class across shard counts and seeds.
func cheatMatrix(t *testing.T, scenario func(t *testing.T, shards int, seed int64)) {
	for _, shards := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				scenario(t, shards, seed)
			})
		}
	}
}

// TestCheatForgedWriteSet: the cheater's completions are rewritten to
// claim a write on an object outside the declared write set. The cheap
// validator catches the very first forged report, the verdict lands
// within a couple of epochs, and the forged write never reaches ζS.
func TestCheatForgedWriteSet(t *testing.T) {
	cheatMatrix(t, func(t *testing.T, shards int, seed int64) {
		run := newCheatRun(t, churnConfig(shards))
		run.forge(func(co *wire.Completion) {
			outside := world.ObjectID(int(co.By)%nObjects) + 1
			co.Res.Writes = append(co.Res.Writes, world.Write{ID: outside, Val: world.Value{1e9}})
		})
		playCheat(run.h, seed, nObjects, 1, nObjects)
		verifyCheatRun(t, run, true, 0)

		ss := run.h.hub.Metrics()
		if ss.ForgedCompletions == 0 {
			t.Fatalf("validator never counted the forgery: %+v", ss)
		}
		if run.reason != uint8(integrity.ViolationFootprint) {
			t.Fatalf("verdict reason = %d, want footprint (%d)", run.reason, integrity.ViolationFootprint)
		}
		if ep := run.detectionEpochs(); ep > 3 {
			t.Fatalf("forged write set took %.1f epochs to detect, want ≤ 3", ep)
		}
		t.Logf("forged write set detected in %.1f epochs (%d tampered)", run.detectionEpochs(), run.tampered)
	})
}

// TestCheatResultTampering: the cheater's reported values are inflated
// but stay inside the declared footprint — invisible to the cheap
// validator, fatal under the re-execution audit. At rate 1.0 the first
// tampered completion is audited at its install, so detection is
// bounded by the install epoch, and the repaired result keeps ζS serial.
func TestCheatResultTampering(t *testing.T) {
	cheatMatrix(t, func(t *testing.T, shards int, seed int64) {
		cfg := churnConfig(shards)
		cfg.AuditRate = 1.0
		run := newCheatRun(t, cfg)
		run.forge(func(co *wire.Completion) {
			for i := range co.Res.Writes {
				co.Res.Writes[i].Val = world.Value{1e6 + float64(i)}
			}
		})
		playCheat(run.h, seed, nObjects, 1, nObjects)
		verifyCheatRun(t, run, true, 0)

		ss := run.h.hub.Metrics()
		if ss.AuditDivergences == 0 || ss.RepairedResults == 0 {
			t.Fatalf("audit never caught the tampering: %+v", ss)
		}
		if run.reason != uint8(integrity.ViolationAudit) {
			t.Fatalf("verdict reason = %d, want audit (%d)", run.reason, integrity.ViolationAudit)
		}
		if ep := run.detectionEpochs(); ep > 3 {
			t.Fatalf("result tampering took %.1f epochs to detect at rate 1.0, want ≤ 3", ep)
		}
		t.Logf("result tampering detected in %.1f epochs (%d tampered)", run.detectionEpochs(), run.tampered)
	})
}

// TestCheatSampledAuditEventuallyDetects: at a partial audit rate the
// tampering survives unsampled installs but the deterministic sampling
// stream catches it within the run — the latency/cost trade AuditRate
// dials (detection after ~1/rate tampered installs). The cheater owns
// objects 11..12, which its unsampled tampered installs may poison until
// detection; the honest region must track the serial oracle exactly and
// no honest client may be punished.
func TestCheatSampledAuditEventuallyDetects(t *testing.T) {
	cheatMatrix(t, func(t *testing.T, shards int, seed int64) {
		const honestHi = 10
		cfg := churnConfig(shards)
		cfg.AuditRate = 0.25
		run := newCheatRun(t, cfg)
		run.forge(func(co *wire.Completion) {
			for i := range co.Res.Writes {
				co.Res.Writes[i].Val = world.Value{2e6}
			}
		})
		playCheat(run.h, seed, honestHi, honestHi+1, nObjects)
		verifyCheatRun(t, run, true, honestHi)
		if run.reason != uint8(integrity.ViolationAudit) {
			t.Fatalf("verdict reason = %d, want audit (%d)", run.reason, integrity.ViolationAudit)
		}
		t.Logf("sampled audit (rate 0.25) detected after %d tampered completions, %.1f epochs",
			run.tampered, run.detectionEpochs())
	})
}

// TestCheatReplayedCompletion: the cheater re-sends its own past
// completion for an installed position with a rewritten result — a
// replay that disagrees with the installed history. The cross-check
// against retained results quarantines it.
func TestCheatReplayedCompletion(t *testing.T) {
	cheatMatrix(t, func(t *testing.T, shards int, seed int64) {
		run := newCheatRun(t, churnConfig(shards))
		injected := false
		run.h.tamper = func(cl *churnClient, msg wire.Msg) wire.Msg {
			co, ok := msg.(*wire.Completion)
			if !ok || cl.id != cheaterID || injected {
				return msg
			}
			// Let the honest completion through now; 30ms later — two
			// flush epochs, comfortably past its install — replay it with
			// a rewritten result.
			injected = true
			replay := *co
			replay.Res = co.Res.Clone()
			for i := range replay.Res.Writes {
				replay.Res.Writes[i].Val = world.Value{3e6}
			}
			h := run.h
			h.k.At(h.k.Now()+30, func() {
				run.markCheat()
				h.send(cl, &replay)
			})
			return msg
		}
		playCheat(run.h, seed, nObjects, 1, nObjects)
		verifyCheatRun(t, run, true, 0)
		if run.reason != uint8(integrity.ViolationReplay) {
			t.Fatalf("verdict reason = %d, want replay (%d)", run.reason, integrity.ViolationReplay)
		}
		if ep := run.detectionEpochs(); ep > 3 {
			t.Fatalf("replayed completion took %.1f epochs to detect, want ≤ 3", ep)
		}
		t.Logf("replayed completion detected in %.1f epochs", run.detectionEpochs())
	})
}

// TestCheatRateFlood: the cheater bursts far past the configured submit
// rate. The token bucket sheds the flood with Drop replies — the
// cheater's client aborts the shed actions locally — but a rate
// violation alone never quarantines, and the honest fleet is untouched.
func TestCheatRateFlood(t *testing.T) {
	cheatMatrix(t, func(t *testing.T, shards int, seed int64) {
		cfg := churnConfig(shards)
		cfg.MaxSubmitRate = 50
		cfg.SubmitBurst = 4
		run := newCheatRun(t, cfg)
		h := run.h

		// The flood: 30 submissions in one instant at t=200.
		rng := rand.New(rand.NewSource(seed + 1000))
		h.k.At(200, func() {
			for i := 0; i < 30; i++ {
				h.submit(h.clients[cheaterID], rng, 1, nObjects)
			}
		})
		playCheat(h, seed, nObjects, 1, nObjects)
		verifyCheatRun(t, run, false, 0)

		ss := h.hub.Metrics()
		if ss.RateLimited == 0 {
			t.Fatalf("flood never rate-limited: %+v", ss)
		}
		cheater := h.clients[cheaterID]
		shed := cheater.submitted - len(cheater.commits)
		if shed != ss.RateLimited {
			t.Fatalf("cheater shed %d submissions, server rate-limited %d — every shed must be a Drop",
				shed, ss.RateLimited)
		}
		t.Logf("rate flood: %d submissions shed, %d committed, honest fleet clean",
			shed, len(cheater.commits))
	})
}

// TestCheatReplayDifferential: the effective-log replay differential
// holds under active cheating — replaying the recorded order through
// a single-lane hub reproduces the router's history, state, and every
// frame popped for a client, verdict frames included. The serial-replay oracle
// and the sharded pipeline agree on who cheated and when.
func TestCheatReplayDifferential(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := churnConfig(shards)
			cfg.AuditRate = 1.0
			run := newCheatRun(t, cfg)
			run.forge(func(co *wire.Completion) { co.Res.Writes[0].Val = world.Value{4e6} })
			playCheat(run.h, 3, nObjects, 1, nObjects)
			verifyCheatRun(t, run, true, 0)
			verifyReplayDifferential(t, run.h)
		})
	}
}
