package core

import (
	"fmt"
	"testing"

	"seve/internal/action"
	"seve/internal/integrity"
	"seve/internal/wire"
	"seve/internal/world"
)

// The integrity tests drive the DESIGN.md §16 enforcement layer at the
// engine level: the cheap completion validator, the sampled re-execution
// auditor, and the per-client influence bounds. Honest traffic must sail
// through with zero verdicts even at full audit rate; each cheat class
// must be detected, attributed to the sending connection, and repaired
// so ζS never leaves the serial-oracle trajectory.

func integrityConfig(auditRate float64) Config {
	cfg := cfgFor(ModeIncomplete)
	cfg.AuditRate = auditRate
	return cfg
}

// TestIntegrityOffEquivalence is the honest-path differential of the
// integrity layer: validation, auditing and repair are server-internal,
// so an honest fleet's replies are byte-identical with the layer off
// (the noIntegrity reference), armed but silent (AuditRate 0) and
// re-executing every completion (AuditRate 1). The off leg runs at rate 1
// too and must audit nothing, or the reference was the layer itself.
func TestIntegrityOffEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeIncomplete, ModeFirstBound} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("mode=%v seed=%d", mode, seed)
			full := cfgFor(mode)
			full.AuditRate = 1
			silent := full
			silent.AuditRate = 0
			trOff, lbOff := runEngineWorkload(t, full, seed, func(s *Server) { s.noIntegrity = true })
			if n := lbOff.srv.Metrics().AuditsRun; n != 0 {
				t.Fatalf("%s: the integrity-off leg audited %d completions", name, n)
			}
			for _, leg := range []struct {
				name string
				cfg  Config
			}{{"silent", silent}, {"full-audit", full}} {
				tr, lb := runEngineWorkload(t, leg.cfg, seed, nil)
				diffTraces(t, name+" "+leg.name, trOff, tr)
				st := lb.srv.Metrics()
				if st.AuditDivergences != 0 || st.RepairedResults != 0 || st.QuarantinedClients != 0 ||
					st.ContractBreaches != 0 || st.ForgedCompletions != 0 {
					t.Fatalf("%s %s: integrity fired on honest clients: %+v", name, leg.name, st)
				}
				if audited := st.AuditsRun != 0; audited != (leg.cfg.AuditRate == 1) {
					t.Fatalf("%s %s: %d audits at rate %v", name, leg.name, st.AuditsRun, leg.cfg.AuditRate)
				}
			}
		}
	}
}

// submitOne pushes a single action through the stamp path and returns
// the client's own honest completion for it.
func submitOne(t *testing.T, srv *Server, c *Client, a *testAction) *wire.Completion {
	t.Helper()
	a.id = c.NextActionID()
	m, _ := c.Submit(a)
	out := srv.HandleSubmit(c.ID(), m, 0)
	if len(out.Replies) == 0 {
		t.Fatal("no reply batch for submission")
	}
	co := c.HandleMsg(out.Replies[0].Msg)
	if len(co.ToServer) == 0 {
		t.Fatal("client produced no completion")
	}
	return co.ToServer[0].(*wire.Completion)
}

func findQuarantine(t *testing.T, out ServerOutput, to action.ClientID) *wire.Quarantine {
	t.Helper()
	for _, r := range out.Replies {
		if q, ok := r.Msg.(*wire.Quarantine); ok {
			if r.To != to {
				t.Fatalf("quarantine verdict addressed to %d, want %d", r.To, to)
			}
			return q
		}
	}
	t.Fatal("no quarantine verdict in output")
	return nil
}

// TestIntegrityHonestOwnCommitsFullAudit: an honest ModeIncomplete fleet
// committing its own actions survives a 100% audit rate untouched — every
// completion is re-executed against ζS and none diverges (Theorem 1), so
// no counter but AuditsRun moves and the oracle invariants hold.
func TestIntegrityHonestOwnCommitsFullAudit(t *testing.T) {
	init := initWorld(4)
	lb := newLoopback(t, integrityConfig(1.0), init, 3)
	for round := 0; round < 5; round++ {
		lb.submit(1, &testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(1), delta: float64(round + 1)})
		lb.submit(2, &testAction{rs: world.NewIDSet(2, 3), ws: world.NewIDSet(2, 3), delta: float64(round + 2)})
		lb.submit(3, &testAction{rs: world.NewIDSet(1, 4), ws: world.NewIDSet(4), delta: float64(round + 3)})
		lb.drain()
	}
	lb.requireNoViolations()
	lb.checkAgainstOracle(init)

	st := lb.srv.Metrics()
	if st.AuditsRun != 15 {
		t.Fatalf("AuditsRun = %d, want 15 (every completion at rate 1.0)", st.AuditsRun)
	}
	if st.AuditDivergences != 0 || st.RepairedResults != 0 {
		t.Fatalf("honest fleet diverged: divergences=%d repaired=%d", st.AuditDivergences, st.RepairedResults)
	}
	if st.QuarantinedClients != 0 || st.ContractBreaches != 0 || st.ForgedCompletions != 0 {
		t.Fatalf("honest fleet quarantined: %+v", st)
	}
}

// TestIntegrityForgedWriteQuarantinesAndRepairs: a completion reporting a
// write outside the action's declared write set is caught by the cheap
// validator, the sender is quarantined with a footprint verdict, and the
// install-time repair audit replaces the forged report with the server's
// own evaluation — ζS stays on the serial trajectory and the honest
// submitter is left alone.
func TestIntegrityForgedWriteQuarantinesAndRepairs(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(0)
	srv := NewServer(cfg, init)
	srv.RegisterClient(1, 0)
	srv.RegisterClient(2, 0)
	c1 := NewClient(1, cfg, init)

	honest := submitOne(t, srv, c1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 5})

	// Connection 2 forges a completion for the pending position that
	// writes an object the action never declared.
	forged := &wire.Completion{Seq: honest.Seq, By: 2, Res: action.Result{OK: true,
		Writes: []world.Write{{ID: 2, Val: world.Value{999}}}}}
	out := srv.HandleCompletion(2, forged)

	q := findQuarantine(t, out, 2)
	if q.Reason != uint8(integrity.ViolationFootprint) {
		t.Fatalf("verdict reason = %d, want footprint (%d)", q.Reason, integrity.ViolationFootprint)
	}
	if q.Seq != honest.Seq || q.Detail != 2 {
		t.Fatalf("verdict names seq %d obj %d, want seq %d obj 2", q.Seq, q.Detail, honest.Seq)
	}
	if !srv.Quarantined(2) || srv.Quarantined(1) {
		t.Fatalf("quarantine latched wrong: q2=%v q1=%v", srv.Quarantined(2), srv.Quarantined(1))
	}

	// The position installed anyway — repaired, not wedged.
	if srv.Installed() != honest.Seq {
		t.Fatalf("installed = %d, want %d (forged report must not wedge the queue)", srv.Installed(), honest.Seq)
	}
	if v, _ := srv.Authoritative().Get(1); v[0] != 6 {
		t.Fatalf("object 1 = %v, want 6 (server's own evaluation)", v)
	}
	if v, _ := srv.Authoritative().Get(2); v[0] != 2 {
		t.Fatalf("object 2 = %v, want untouched 2", v)
	}

	st := srv.Metrics()
	if st.ForgedCompletions != 1 || st.QuarantinedClients != 1 {
		t.Fatalf("forged=%d quarantined=%d, want 1/1", st.ForgedCompletions, st.QuarantinedClients)
	}
	if st.AuditsRun != 1 || st.AuditDivergences != 1 || st.RepairedResults != 1 {
		t.Fatalf("repair audit: runs=%d div=%d repaired=%d, want 1/1/1", st.AuditsRun, st.AuditDivergences, st.RepairedResults)
	}

	// The honest submitter's late duplicate matches the repaired install
	// and changes nothing.
	srv.HandleCompletion(1, honest)
	if srv.Quarantined(1) {
		t.Fatal("honest late duplicate quarantined its sender")
	}
}

// TestIntegrityContractBreachQuarantines: a client-originated action
// whose declared sets break WS ⊆ RS is caught at completion intake —
// the conflict analysis ran on a lie — and the sender is quarantined
// with a contract verdict while the position still installs.
func TestIntegrityContractBreachQuarantines(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(0)
	srv := NewServer(cfg, init)
	srv.RegisterClient(1, 0)
	c1 := NewClient(1, cfg, init)

	// ws={2} not covered by rs={1}: the declared contract is broken even
	// though the evaluation itself is honest.
	comp := submitOne(t, srv, c1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(2), delta: 3})
	out := srv.HandleCompletion(1, comp)

	q := findQuarantine(t, out, 1)
	if q.Reason != uint8(integrity.ViolationContract) {
		t.Fatalf("verdict reason = %d, want contract (%d)", q.Reason, integrity.ViolationContract)
	}
	st := srv.Metrics()
	if st.ContractBreaches != 1 || st.QuarantinedClients != 1 {
		t.Fatalf("breaches=%d quarantined=%d, want 1/1", st.ContractBreaches, st.QuarantinedClients)
	}
	// Repair audit re-executed the action; the honest evaluation matches,
	// so nothing needed replacing and the install went through.
	if srv.Installed() != comp.Seq {
		t.Fatalf("installed = %d, want %d", srv.Installed(), comp.Seq)
	}
	if st.AuditsRun != 1 || st.RepairedResults != 0 {
		t.Fatalf("repair audit: runs=%d repaired=%d, want 1/0", st.AuditsRun, st.RepairedResults)
	}
}

// TestIntegrityReplayMismatchQuarantines: re-sending a completion for an
// already-installed position is honest redundancy when it matches the
// installed result — and a replayed forgery when it does not.
func TestIntegrityReplayMismatchQuarantines(t *testing.T) {
	init := initWorld(1)
	cfg := integrityConfig(0)
	srv := NewServer(cfg, init)
	srv.RegisterClient(1, 0)
	srv.RegisterClient(2, 0)
	c1 := NewClient(1, cfg, init)

	honest := submitOne(t, srv, c1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10})
	srv.HandleCompletion(1, honest)
	if srv.Installed() != honest.Seq {
		t.Fatalf("setup: installed = %d", srv.Installed())
	}

	// An honest resume re-send of the retained completion: same bytes,
	// matches the installed result, nobody is quarantined.
	out := srv.HandleCompletion(1, honest)
	if len(out.Replies) != 0 || srv.Quarantined(1) {
		t.Fatalf("honest replay punished: replies=%d q=%v", len(out.Replies), srv.Quarantined(1))
	}

	// A tampered replay for the same installed position: inside the
	// declared write set, but the value disagrees with what installed.
	tampered := &wire.Completion{Seq: honest.Seq, By: 1, Res: action.Result{OK: true,
		Writes: []world.Write{{ID: 1, Val: world.Value{77777}}}}}
	out = srv.HandleCompletion(2, tampered)
	q := findQuarantine(t, out, 2)
	if q.Reason != uint8(integrity.ViolationReplay) {
		t.Fatalf("verdict reason = %d, want replay (%d)", q.Reason, integrity.ViolationReplay)
	}
	if v, _ := srv.Authoritative().Get(1); v[0] != 11 {
		t.Fatalf("replayed forgery moved ζS: %v", v)
	}
}

// TestIntegrityAuditCatchesValueTampering: a tampered result that stays
// inside the declared footprint passes the cheap validator but cannot
// survive the re-execution audit — at rate 1.0 detection happens at the
// very install that covers the position, the report is repaired before
// it touches ζS, and the sender is quarantined.
func TestIntegrityAuditCatchesValueTampering(t *testing.T) {
	init := initWorld(1)
	cfg := integrityConfig(1.0)
	srv := NewServer(cfg, init)
	srv.RegisterClient(1, 0)
	c1 := NewClient(1, cfg, init)

	honest := submitOne(t, srv, c1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 4})
	tampered := &wire.Completion{Seq: honest.Seq, By: 1, Res: action.Result{OK: true,
		Writes: []world.Write{{ID: 1, Val: world.Value{1_000_000}}}}}
	out := srv.HandleCompletion(1, tampered)

	q := findQuarantine(t, out, 1)
	if q.Reason != uint8(integrity.ViolationAudit) {
		t.Fatalf("verdict reason = %d, want audit (%d)", q.Reason, integrity.ViolationAudit)
	}
	if v, _ := srv.Authoritative().Get(1); v[0] != 5 {
		t.Fatalf("object 1 = %v, want repaired 5", v)
	}
	st := srv.Metrics()
	if st.AuditDivergences != 1 || st.RepairedResults != 1 || st.QuarantinedClients != 1 {
		t.Fatalf("divergences=%d repaired=%d quarantined=%d, want 1/1/1",
			st.AuditDivergences, st.RepairedResults, st.QuarantinedClients)
	}
}

// TestIntegrityOrphanSelfCompletion: a quarantined client's stamped but
// never-completed positions must not wedge the install queue — its
// reports are rejected from the verdict on, so the server completes the
// abandoned positions itself at their exact serial points.
func TestIntegrityOrphanSelfCompletion(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(0)
	srv := NewServer(cfg, init)
	srv.RegisterClient(1, 0)
	srv.RegisterClient(2, 0)
	c2 := NewClient(2, cfg, init)

	// Client 2 stamps two actions; the first is abandoned (no completion
	// will ever arrive for it), the second's completion is forged.
	first := submitOne(t, srv, c2, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1})
	second := submitOne(t, srv, c2, &testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 2})
	_ = first // the honest completion for seq 1 is never delivered

	forged := &wire.Completion{Seq: second.Seq, By: 2, Res: action.Result{OK: true,
		Writes: []world.Write{{ID: 1, Val: world.Value{666}}}}}
	out := srv.HandleCompletion(2, forged)
	findQuarantine(t, out, 2)

	// Both positions installed: seq 1 via server self-completion, seq 2
	// via the forced repair audit. ζS matches the serial oracle.
	if srv.Installed() != 2 {
		t.Fatalf("installed = %d, want 2 (abandoned position wedged the queue)", srv.Installed())
	}
	if v, _ := srv.Authoritative().Get(1); v[0] != 2 {
		t.Fatalf("object 1 = %v, want 2 (self-completed seq 1)", v)
	}
	if v, _ := srv.Authoritative().Get(2); v[0] != 4 {
		t.Fatalf("object 2 = %v, want 4 (repaired seq 2)", v)
	}
	st := srv.Metrics()
	if st.OrphanCompletions != 1 {
		t.Fatalf("OrphanCompletions = %d, want 1", st.OrphanCompletions)
	}
	if st.RepairedResults != 1 {
		t.Fatalf("RepairedResults = %d, want 1", st.RepairedResults)
	}
}

// TestIntegrityRateLimit: the token bucket drops the flood tail with
// Drop replies — the client aborts locally instead of waiting forever —
// but a rate violation alone never quarantines, and the bucket refills
// on the engine clock.
func TestIntegrityRateLimit(t *testing.T) {
	init := initWorld(1)
	cfg := integrityConfig(0)
	cfg.MaxSubmitRate = 1 // one per second...
	cfg.SubmitBurst = 2   // ...with two tokens of depth
	lb := newLoopback(t, cfg, init, 1)

	for i := 0; i < 5; i++ {
		lb.submit(1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1})
	}
	lb.drain()

	st := lb.srv.Metrics()
	if st.RateLimited != 3 {
		t.Fatalf("RateLimited = %d, want 3 (burst of 2 passes)", st.RateLimited)
	}
	if st.QuarantinedClients != 0 {
		t.Fatal("rate flood quarantined the client; bounds must only shed")
	}
	if len(lb.drops) != 3 {
		t.Fatalf("client aborted %d actions locally, want 3", len(lb.drops))
	}

	// A second elapses: the bucket refills and the client is welcome again.
	lb.nowMs = 1000
	lb.submit(1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 2})
	lb.drain()
	if st := lb.srv.Metrics(); st.RateLimited != 3 {
		t.Fatalf("refilled submit still limited: RateLimited = %d", st.RateLimited)
	}
	if lb.srv.Installed() != 3 {
		t.Fatalf("installed = %d, want 3 (2 burst + 1 refilled)", lb.srv.Installed())
	}
}

// TestIntegrityWriteSetCap: a declared write set above the per-client
// cap is shed with a Drop before stamping; compliant actions pass.
func TestIntegrityWriteSetCap(t *testing.T) {
	init := initWorld(3)
	cfg := integrityConfig(0)
	cfg.MaxWriteSet = 2
	lb := newLoopback(t, cfg, init, 1)

	lb.submit(1, &testAction{rs: world.NewIDSet(1, 2, 3), ws: world.NewIDSet(1, 2, 3), delta: 1})
	lb.submit(1, &testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(1, 2), delta: 2})
	lb.drain()

	st := lb.srv.Metrics()
	if st.WriteSetViolations != 1 {
		t.Fatalf("WriteSetViolations = %d, want 1", st.WriteSetViolations)
	}
	if st.QuarantinedClients != 0 {
		t.Fatal("write-set violation quarantined the client")
	}
	if lb.srv.Installed() != 1 {
		t.Fatalf("installed = %d, want 1 (only the compliant action)", lb.srv.Installed())
	}
}

// TestIntegrityRadiusCap: an influence sphere above the per-client
// radius cap is shed with a Drop before stamping.
func TestIntegrityRadiusCap(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(0)
	cfg.MaxInfluenceRadius = 10
	lb := newLoopback(t, cfg, init, 1)

	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 0, 0, 50))
	lb.submit(1, spatialAt(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 2}, 0, 0, 5))
	lb.drain()

	st := lb.srv.Metrics()
	if st.RadiusViolations != 1 {
		t.Fatalf("RadiusViolations = %d, want 1", st.RadiusViolations)
	}
	if lb.srv.Installed() != 1 {
		t.Fatalf("installed = %d, want 1 (only the in-bounds action)", lb.srv.Installed())
	}
}

// TestIntegrityQuarantineSilences: once quarantined, a client's further
// submissions and completions are rejected without a single reply byte
// — the verdict already said everything, and silence keeps per-client
// reply streams replay-identical — and its resume attempt is refused
// with the verdict rather than a catch-up.
func TestIntegrityQuarantineSilences(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(0)
	cfg.ResumeWindow = 4
	lb := newLoopback(t, cfg, init, 2)

	lb.submit(1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1})
	lb.submit(2, &testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 2})
	lb.drain()

	// Client 2 replays client 1's installed position with a tampered
	// result and earns its verdict.
	out := lb.srv.HandleCompletion(2, &wire.Completion{Seq: 1, By: 2, Res: action.Result{OK: true,
		Writes: []world.Write{{ID: 1, Val: world.Value{5555}}}}})
	findQuarantine(t, out, 2)
	before := lb.srv.Metrics()

	// Further submissions: silently shed, not stamped, no replies.
	lb.submit(2, &testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 9})
	for lb.stepServer() {
	}
	if len(lb.toClient[2]) != 0 {
		t.Fatalf("quarantined client got %d reply frames, want silence", len(lb.toClient[2]))
	}
	// Further completions: same.
	lb.srv.TakeCompletion(2, &wire.Completion{Seq: 1, By: 2, Res: action.Result{OK: false}})

	st := lb.srv.Metrics()
	if n := len(lb.srv.History()); n != 2 {
		t.Fatalf("history has %d stamps, want 2 (quarantined submission must not stamp)", n)
	}
	if st.QuarantineRejected != before.QuarantineRejected+2 {
		t.Fatalf("QuarantineRejected = %d, want %d", st.QuarantineRejected, before.QuarantineRejected+2)
	}

	// Resume presents a valid token but gets the verdict back.
	tok := lb.srv.SessionToken(2)
	if tok == 0 {
		t.Fatal("no session token for client 2")
	}
	cid, rout := lb.srv.HandleResume(&wire.Resume{Token: tok}, lb.nowMs)
	if cid != 0 {
		t.Fatalf("quarantined resume resolved to client %d, want rejection", cid)
	}
	if len(rout.Replies) != 1 {
		t.Fatalf("quarantined resume produced %d replies, want 1 verdict", len(rout.Replies))
	}
	q, ok := rout.Replies[0].Msg.(*wire.Quarantine)
	if !ok {
		t.Fatalf("quarantined resume replied %T, want *wire.Quarantine", rout.Replies[0].Msg)
	}
	if q.Reason != uint8(integrity.ViolationQuarantined) {
		t.Fatalf("resume verdict reason = %d, want quarantined (%d)", q.Reason, integrity.ViolationQuarantined)
	}
}

// TestIntegrityResumeDedupNoQuarantine: the resume race — re-submissions
// of actions the session already stamped — is swallowed by the session
// dedup before any bound or validator sees it, so an honest reconnecting
// client cannot be punished for its own retransmissions.
func TestIntegrityResumeDedupNoQuarantine(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(1.0)
	cfg.ResumeWindow = 4  // sessions on: resume re-sends hit the dedup floor
	cfg.MaxSubmitRate = 2 // tight enough that counting retransmissions would trip it
	cfg.SubmitBurst = 2
	lb := newLoopback(t, cfg, init, 1)

	a1 := &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}
	a2 := &testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 2}
	lb.submit(1, a1)
	lb.submit(1, a2)
	lb.drain()

	// The resume re-send: the same stamped actions arrive again on the
	// same session, with the rate bucket already empty. The session dedup
	// floor swallows them before any bound or validator can fire.
	lb.toServer = append(lb.toServer,
		fromMsg{from: 1, msg: &wire.Submit{Env: action.Envelope{Origin: 1, Act: a1}}},
		fromMsg{from: 1, msg: &wire.Submit{Env: action.Envelope{Origin: 1, Act: a2}}})
	lb.drain()

	st := lb.srv.Metrics()
	if st.DuplicateSubmits != 2 {
		t.Fatalf("DuplicateSubmits = %d, want 2", st.DuplicateSubmits)
	}
	if st.RateLimited != 0 || st.QuarantinedClients != 0 {
		t.Fatalf("resume retransmissions punished: rate=%d quarantined=%d", st.RateLimited, st.QuarantinedClients)
	}
	lb.requireNoViolations()
	lb.checkAgainstOracle(init)
}

// TestIntegrityHonestRedundantReportsClean: under FailureTolerant every
// client that evaluates an action reports it, so the server sees the
// same position completed more than once — while its first report is
// still held (first wins) and after it installed (checked against the
// retained result). Honest reports agree by Theorem 1: at full audit
// rate nobody is quarantined and nothing is repaired.
func TestIntegrityHonestRedundantReportsClean(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(1.0)
	cfg.FailureTolerant = true
	lb := newLoopback(t, cfg, init, 2)
	// Conflicting actions so both clients evaluate both and both report.
	lb.submit(1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 10})
	for lb.stepServer() {
	}
	lb.submit(2, &testAction{rs: world.NewIDSet(1, 2), ws: world.NewIDSet(2), delta: 100})
	lb.drain()
	lb.requireNoViolations()
	lb.checkAgainstOracle(init)
	if lb.clients[2].AppliedRemote() != 1 {
		t.Fatalf("client 2 evaluated %d remote actions, want 1: no redundant report was sent",
			lb.clients[2].AppliedRemote())
	}
	st := lb.srv.Metrics()
	if st.QuarantinedClients != 0 || st.AuditDivergences != 0 || st.RepairedResults != 0 {
		t.Fatalf("honest fleet flagged: quarantined=%d divergences=%d repaired=%d",
			st.QuarantinedClients, st.AuditDivergences, st.RepairedResults)
	}
}

// TestIntegrityHeldPositionFirstReportWins: a second, disagreeing report
// for a position whose first report is still held — its predecessor has
// not installed — is ignored: no verdict, no replacement, and the
// position installs with the first report's values. (A forgery that
// arrives first is the auditor's to catch:
// TestIntegrityAuditCatchesValueTampering.)
func TestIntegrityHeldPositionFirstReportWins(t *testing.T) {
	init := initWorld(2)
	cfg := integrityConfig(0)
	cfg.FailureTolerant = true
	srv := NewServer(cfg, init)
	srv.RegisterClient(1, 0)
	srv.RegisterClient(2, 0)
	c1 := NewClient(1, cfg, init)
	c2 := NewClient(2, cfg, init)

	// Two actions; the completion for seq 1 is withheld so seq 2 stays
	// held.
	first := submitOne(t, srv, c1, &testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1})
	second := submitOne(t, srv, c2, &testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 2})
	srv.HandleCompletion(2, second)
	taken := srv.Metrics().CompletionsTaken

	out := srv.HandleCompletion(1, &wire.Completion{Seq: second.Seq, By: 1, Res: action.Result{OK: false}})
	if len(out.Replies) != 0 || srv.Quarantined(1) || srv.Quarantined(2) {
		t.Fatalf("second report for a held position drew a verdict: %+v", out)
	}
	if got := srv.Metrics().CompletionsTaken; got != taken {
		t.Fatalf("CompletionsTaken %d → %d: the second report replaced the first", taken, got)
	}

	srv.HandleCompletion(1, first)
	if srv.Installed() != 2 {
		t.Fatalf("installed = %d, want 2", srv.Installed())
	}
	if v, _ := srv.Authoritative().Get(2); v[0] != 4 {
		t.Fatalf("object 2 = %v, want the first report's 4", v)
	}
}
