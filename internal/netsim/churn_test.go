package netsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/oracletest"
	"seve/internal/shard"
	"seve/internal/sim"
	"seve/internal/wire"
	"seve/internal/world"
)

// The churn swarm: a deterministic fault-injection harness for the
// session resume protocol. A sharded SEVE server and a fleet of clients
// run over the simulated network; scripted and seeded-random
// disconnects kill clients mid-flight (losing in-flight batches,
// submissions, and completions with the connection), reconnects replay
// the Resume/CatchUp handshake over the wire, and at the end the
// Theorem 1 oracle checks that every client's ζCS is serial-replay
// consistent, every action committed exactly once, and — when the
// engine is a shard router — that replaying the effective log through
// the single-lane engine reproduces every reply byte for byte. Failing
// subtests carry the shard count and seed in their name.

// churnAction mirrors core's test action: read rs, sum first
// attributes, write sum+delta into every object of ws ⊆ rs.
type churnAction struct {
	id     action.ID
	rs, ws world.IDSet
	delta  float64
}

const kindChurn action.Kind = 2000

func (a *churnAction) ID() action.ID         { return a.id }
func (a *churnAction) Kind() action.Kind     { return kindChurn }
func (a *churnAction) ReadSet() world.IDSet  { return a.rs }
func (a *churnAction) WriteSet() world.IDSet { return a.ws }

func (a *churnAction) Apply(tx *world.Tx) bool {
	sum := 0.0
	for _, id := range a.rs {
		v, ok := tx.Read(id)
		if !ok {
			return false
		}
		if len(v) > 0 {
			sum += v[0]
		}
	}
	for _, id := range a.ws {
		tx.Write(id, world.Value{sum + a.delta})
	}
	return true
}

func (a *churnAction) MarshalBody() []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.delta))
}

// churnMsg stamps a client→server message with the sender's connection
// generation: the server-side glue drops messages from generations that
// died, modeling the uplink half of a broken connection (RemoveNode
// models the downlink half).
type churnMsg struct {
	gen int
	msg wire.Msg
}

func (m churnMsg) WireSize() int { return m.msg.WireSize() }

type churnClient struct {
	id        action.ClientID
	node      NodeID
	engine    *core.Client
	connected bool
	// resuming marks the Resume → CatchUp handshake window. The real
	// transport sends nothing new until the verdict lands; a fresh
	// submission racing ahead of the handshake's re-submissions would
	// advance the server's dedup floor past them and swallow the
	// backlog as duplicates.
	resuming  bool
	gen       int
	commits   []core.Commit
	submitted int
}

type churnHarness struct {
	t       *testing.T
	k       *sim.Kernel
	net     *Network
	eng     core.Engine
	resumer core.Resumer
	clients map[action.ClientID]*churnClient
	order   []action.ClientID
	init    *world.State
	cfg     core.Config

	violations []string
	staleMsgs  int
	// trace, when set, observes every message a client is about to
	// process (debugging aid for the durable variants).
	trace   func(cl *churnClient, msg wire.Msg)
	traceUp func(cl *churnClient, msg wire.Msg, stale bool)
	// tamper, when set, rewrites a client's uplink messages after the
	// stale-generation filter — the cheat-injection seam (cheat_test.go).
	// Returning nil swallows the message.
	tamper func(cl *churnClient, msg wire.Msg) wire.Msg
	// bytes collects the per-client reply stream for the replay
	// differential.
	bytes map[action.ClientID][]byte
}

// churnConfig is the engine configuration every churn harness runs.
func churnConfig(shards int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncomplete
	cfg.Strict = true
	cfg.RecordHistory = true
	cfg.Threshold = 1e9
	cfg.ResumeWindow = 2 // tiny on purpose: bursts overflow it into snapshots
	cfg.Shards = shards
	cfg.ShardCellSize = 100
	return cfg
}

// churnInit seeds object i with value float64(i) for i in 1..nObjects.
func churnInit(nObjects int) *world.State {
	init := world.NewState()
	for i := 1; i <= nObjects; i++ {
		init.Set(world.ObjectID(i), world.Value{float64(i)})
	}
	return init
}

func newChurnHarness(t *testing.T, shards, nClients, nObjects int) *churnHarness {
	return newJournaledChurnHarness(t, shards, nClients, nObjects, nil)
}

// newJournaledChurnHarness attaches the durable feed before any client
// registers, so session opens are journaled from the very first mint —
// the order the transport boot path guarantees.
func newJournaledChurnHarness(t *testing.T, shards, nClients, nObjects int, j core.Journal) *churnHarness {
	return newChurnHarnessCfg(t, churnConfig(shards), nClients, nObjects, j)
}

// newChurnHarnessCfg builds the harness around an explicit engine
// configuration (the cheat matrix tightens bounds and audit rates).
func newChurnHarnessCfg(t *testing.T, cfg core.Config, nClients, nObjects int, j core.Journal) *churnHarness {
	init := churnInit(nObjects)

	k := sim.NewKernel()
	h := &churnHarness{
		t:       t,
		k:       k,
		net:     New(k, LinkConfig{Latency: 5, BandwidthBps: 0}),
		eng:     shard.NewEngine(cfg, init),
		clients: make(map[action.ClientID]*churnClient),
		init:    init,
		cfg:     cfg,
		bytes:   make(map[action.ClientID][]byte),
	}
	var ok bool
	h.resumer, ok = h.eng.(core.Resumer)
	if !ok {
		t.Fatal("engine does not implement core.Resumer")
	}
	if j != nil {
		h.eng.SetJournal(j)
	}

	h.net.AddNode(ServerNode, func(from NodeID, msg Message) {
		cm := msg.(churnMsg)
		cid := action.ClientID(from)
		cl := h.clients[cid]
		if h.traceUp != nil {
			h.traceUp(cl, cm.msg, cm.gen != cl.gen)
		}
		if cm.gen != cl.gen {
			h.staleMsgs++ // uplink traffic from a dead connection
			return
		}
		if h.tamper != nil {
			if cm.msg = h.tamper(cl, cm.msg); cm.msg == nil {
				return
			}
		}
		now := float64(h.k.Now())
		var out core.ServerOutput
		if rm, isResume := cm.msg.(*wire.Resume); isResume {
			var rcid action.ClientID
			rcid, out = h.resumer.HandleResume(rm, now)
			if rcid != cid {
				h.violations = append(h.violations,
					fmt.Sprintf("resume for client %d resolved to %d", cid, rcid))
				return
			}
		} else {
			out = h.eng.HandleMsg(cid, cm.msg, now)
		}
		h.dispatch(out)
	})

	for i := 1; i <= nClients; i++ {
		cid := action.ClientID(i)
		cl := &churnClient{id: cid, node: NodeID(i), engine: core.NewClient(cid, cfg, init), connected: true}
		h.clients[cid] = cl
		h.order = append(h.order, cid)
		h.eng.RegisterClient(cid, 0)
		h.attach(cl)
	}
	return h
}

// dispatch forwards server replies over the network; anything addressed
// to a disconnected client dies on the (removed) downlink.
func (h *churnHarness) dispatch(out core.ServerOutput) {
	for _, rep := range out.Replies {
		if rep.To == 0 {
			continue
		}
		h.bytes[rep.To] = wire.AppendFrame(h.bytes[rep.To], rep.Msg)
		h.net.Send(ServerNode, NodeID(rep.To), rep.Msg)
	}
}

// attach registers the client's node handler for its current connection
// generation.
func (h *churnHarness) attach(cl *churnClient) {
	gen := cl.gen
	h.net.AddNode(cl.node, func(from NodeID, msg Message) {
		if cl.gen != gen || !cl.connected {
			return
		}
		if h.trace != nil {
			h.trace(cl, msg.(wire.Msg))
		}
		out := cl.engine.HandleMsg(msg.(wire.Msg))
		if _, isVerdict := msg.(*wire.CatchUp); isVerdict {
			// Handshake complete: the backlog re-submissions are in out
			// and will precede anything submitted from here on.
			cl.resuming = false
		}
		h.absorb(cl, out)
	})
}

func (h *churnHarness) absorb(cl *churnClient, out core.ClientOutput) {
	// A boot fence withdraws commits whose positions the crash rolled
	// back; the engine re-submits those actions and re-reports them at
	// their re-issued positions.
	for _, rv := range out.Revoked {
		for i := len(cl.commits) - 1; i >= 0; i-- {
			if cl.commits[i].ActID == rv.ActID && cl.commits[i].Seq == rv.Seq {
				cl.commits = append(cl.commits[:i], cl.commits[i+1:]...)
				break
			}
		}
	}
	cl.commits = append(cl.commits, out.Commits...)
	h.violations = append(h.violations, out.Violations...)
	for _, m := range out.ToServer {
		h.send(cl, m)
	}
}

func (h *churnHarness) send(cl *churnClient, m wire.Msg) {
	h.net.Send(cl.node, ServerNode, churnMsg{gen: cl.gen, msg: m})
}

// submit mints a random action. A disconnected client still queues it
// optimistically — the resume handshake re-submits the backlog.
func (h *churnHarness) submit(cl *churnClient, rng *rand.Rand, nObjects int) {
	a := world.ObjectID(rng.Intn(nObjects) + 1)
	b := world.ObjectID(rng.Intn(nObjects) + 1)
	rs := world.IDSet{a}
	if b != a {
		if b < a {
			rs = world.IDSet{b, a}
		} else {
			rs = world.IDSet{a, b}
		}
	}
	act := &churnAction{rs: rs, ws: world.IDSet{a}, delta: float64(rng.Intn(100))}
	act.id = cl.engine.NextActionID()
	msg, _ := cl.engine.Submit(act)
	cl.submitted++
	if cl.connected && !cl.resuming {
		h.send(cl, msg)
	}
}

// disconnect models the transport's leave path: the downlink node
// disappears (in-flight batches die), the uplink generation is burned
// (in-flight submissions and completions die), and the engine
// unregisters the client.
func (h *churnHarness) disconnect(cl *churnClient) {
	if !cl.connected {
		return
	}
	cl.connected = false
	cl.gen++
	h.net.RemoveNode(cl.node)
	h.eng.UnregisterClient(cl.id)
}

// reconnect re-attaches the node and replays the Resume handshake over
// the wire.
func (h *churnHarness) reconnect(cl *churnClient) {
	if cl.connected {
		return
	}
	cl.connected = true
	cl.resuming = true
	h.attach(cl)
	tok := h.resumer.SessionToken(cl.id)
	if tok == 0 {
		h.t.Fatalf("client %d has no session token", cl.id)
	}
	h.send(cl, &wire.Resume{Token: tok, LastBatchSeq: cl.engine.LastAppliedBatch()})
}

func (h *churnHarness) flush() {
	if f, ok := h.eng.(core.Flusher); ok {
		h.dispatch(f.Flush())
	}
}

// runChurn plays the scripted + seeded-random fault schedule and drains.
func runChurn(t *testing.T, shards int, seed int64) *churnHarness {
	const nClients, nObjects = 5, 12
	h := newChurnHarness(t, shards, nClients, nObjects)
	playChurn(h, seed, nObjects)
	return h
}

// playChurn schedules the standard churn script on an already-built
// harness and drains the kernel. Split from runChurn so the durable
// variants can attach a journal to the engine first and replay the
// byte-identical schedule.
func playChurn(h *churnHarness, seed int64, nObjects int) {
	rng := rand.New(rand.NewSource(seed))
	k := h.k

	// Periodic epoch flush, like the TCP loop's queue-dry flush.
	const horizon = 1500
	for ms := sim.Time(1); ms < horizon; ms += 10 {
		ms := ms
		k.At(ms, h.flush)
	}

	// Random phase: submissions everywhere, churn on clients 3..N
	// (clients 1 and 2 are reserved for the scripted faults below).
	for step := 0; step < 30; step++ {
		at := sim.Time(step * 10)
		k.At(at, func() {
			cl := h.clients[h.order[rng.Intn(len(h.order))]]
			if cl.connected || rng.Float64() < 0.3 {
				h.submit(cl, rng, nObjects)
			}
			if rng.Float64() < 0.15 {
				victim := h.clients[h.order[2+rng.Intn(len(h.order)-2)]]
				if victim.connected {
					h.disconnect(victim)
					back := at + sim.Time(30+rng.Intn(10)*10)
					k.At(back, func() { h.reconnect(victim) })
				}
			}
		})
	}

	// Scripted snapshot fault: client 2 bursts past the ResumeWindow,
	// then the connection dies with every reply still in flight. The
	// submissions arrive at t=325 and each draws its own closure batch,
	// so four batches depart at 325 and land at 330 — into a downlink
	// that died at 327. The gap (4 batches > window 2) forces the
	// blind-write snapshot path.
	c2 := h.clients[2]
	k.At(320, func() {
		for i := 0; i < 4; i++ {
			h.submit(c2, rng, nObjects)
		}
	})
	k.At(327, func() { h.disconnect(c2) })
	k.At(420, func() { h.reconnect(c2) })

	// Scripted suffix fault: client 1 drops during a quiet window (all
	// its batches applied), so the resume is a pure suffix replay.
	k.At(500, func() { h.disconnect(h.clients[1]) })
	k.At(540, func() { h.reconnect(h.clients[1]) })

	// Second random phase after the scripted faults.
	for step := 0; step < 15; step++ {
		at := sim.Time(560 + step*10)
		k.At(at, func() {
			cl := h.clients[h.order[rng.Intn(len(h.order))]]
			if cl.connected || rng.Float64() < 0.3 {
				h.submit(cl, rng, nObjects)
			}
		})
	}

	// Everyone comes home; the tail flushes drain the exchanges.
	k.At(720, func() {
		for _, cid := range h.order {
			h.reconnect(h.clients[cid])
		}
	})

	k.Run()
}

// verifyChurn runs the Theorem 1 oracle over a drained harness.
func verifyChurn(t *testing.T, h *churnHarness) {
	if len(h.violations) > 0 {
		t.Fatalf("protocol violations (%d), first: %s", len(h.violations), h.violations[0])
	}

	// The serialized history must be contiguous and fully installed.
	hist := h.eng.History()
	for i, env := range hist {
		if env.Seq != uint64(i+1) {
			t.Fatalf("history gap at %d: seq %d", i, env.Seq)
		}
	}
	if got := h.eng.Installed(); got != uint64(len(hist)) {
		t.Fatalf("installed %d of %d actions", got, len(hist))
	}
	if got := h.eng.QueueLen(); got != 0 {
		t.Fatalf("server queue still holds %d actions", got)
	}

	// ζS equals the omniscient serial replay.
	oracle := oracletest.Replay(h.init, hist)
	if !h.eng.Authoritative().Equal(oracle.Final()) {
		t.Fatal("authoritative state ζS diverged from serial oracle")
	}
	verifyClients(t, h, oracle)
	requirePruned(t, h)

	// Both repair paths must have fired: the scripted burst forces a
	// snapshot past the window, the quiet-window drop a suffix replay.
	ss := h.eng.Metrics()
	if ss.ResumesSnapshot == 0 {
		t.Errorf("no snapshot-fallback resume despite the scripted over-window burst: %+v", ss)
	}
	if ss.ResumesSuffix == 0 {
		t.Errorf("no suffix-replay resume despite the scripted quiet-window drop: %+v", ss)
	}
	if ss.ResumesRejected != 0 {
		t.Errorf("%d resumes rejected with valid tokens", ss.ResumesRejected)
	}

	// Zero false positives: the integrity layer runs armed at the default
	// audit rate through all of this churn — resume re-sends, duplicate
	// completions, stale uplink traffic — and an honest fleet must come
	// out with a spotless ledger (AuditsRun alone may move).
	if ss.QuarantinedClients != 0 || ss.QuarantineRejected != 0 {
		t.Errorf("honest churn quarantined: clients=%d rejected=%d", ss.QuarantinedClients, ss.QuarantineRejected)
	}
	if ss.ContractBreaches != 0 || ss.ForgedCompletions != 0 || ss.AuditDivergences != 0 || ss.RepairedResults != 0 {
		t.Errorf("honest churn tripped the validator/auditor: breaches=%d forged=%d divergences=%d repaired=%d",
			ss.ContractBreaches, ss.ForgedCompletions, ss.AuditDivergences, ss.RepairedResults)
	}
	if ss.RateLimited != 0 || ss.WriteSetViolations != 0 || ss.RadiusViolations != 0 || ss.OrphanCompletions != 0 {
		t.Errorf("honest churn tripped the bounds: rate=%d ws=%d radius=%d orphans=%d",
			ss.RateLimited, ss.WriteSetViolations, ss.RadiusViolations, ss.OrphanCompletions)
	}
}

// verifyClients holds every client to the oracle: each submitted action
// committed exactly once with the oracle's result, no duplicate or
// missing serials, queues empty, ζCS serial-replay consistent per held
// version.
func verifyClients(t *testing.T, h *churnHarness, oracle *oracletest.Oracle) {
	t.Helper()
	for _, cid := range h.order {
		cl := h.clients[cid]
		if got := cl.engine.QueueLen(); got != 0 {
			t.Fatalf("client %d still has %d in-flight actions", cid, got)
		}
		if len(cl.commits) != cl.submitted {
			t.Fatalf("client %d committed %d of %d submissions", cid, len(cl.commits), cl.submitted)
		}
		seen := make(map[uint64]bool, len(cl.commits))
		for _, c := range cl.commits {
			if seen[c.Seq] {
				t.Fatalf("client %d committed serial %d twice", cid, c.Seq)
			}
			seen[c.Seq] = true
			want, ok := oracle.Result(c.Seq)
			if !ok {
				t.Fatalf("client %d commit at seq %d not in history", cid, c.Seq)
			}
			if !c.Res.Equal(want) {
				t.Fatalf("client %d stable result at seq %d diverged from oracle", cid, c.Seq)
			}
		}
		oracle.CheckStable(t, fmt.Sprintf("client %d", cid), cl.engine.Stable())
	}
}

// requirePruned fails unless some client's garbage collection removed a
// version: the clients run GC as shipped, and a run that never pruned
// says nothing about it. A boot fence's truncation removes versions too,
// so the kill-recover matrix asks before the restart.
func requirePruned(t *testing.T, h *churnHarness) {
	t.Helper()
	for _, cid := range h.order {
		if cs := h.clients[cid].engine.Stable(); cs.Versions() < cs.Stored() {
			return
		}
	}
	t.Fatal("no client's garbage collection removed a version")
}

// verifyReplayDifferential replays the router's effective log through
// the single-lane engine and requires identical history and identical
// per-client reply bytes — resume handling included.
func verifyReplayDifferential(t *testing.T, h *churnHarness) {
	r, ok := h.eng.(*shard.Router)
	if !ok {
		return // shards=1 already runs the single lane
	}
	single := core.NewServer(h.cfg, h.init)
	outs := shard.Replay(single, r.EffectiveLog())
	singleBytes := make(map[action.ClientID][]byte)
	for _, out := range outs {
		for _, rep := range out.Replies {
			if rep.To == 0 {
				continue
			}
			singleBytes[rep.To] = wire.AppendFrame(singleBytes[rep.To], rep.Msg)
		}
	}

	ha, hb := r.History(), single.History()
	if len(ha) != len(hb) {
		t.Fatalf("replay history length %d, router %d", len(hb), len(ha))
	}
	for i := range ha {
		if ha[i].Seq != hb[i].Seq || ha[i].Act.ID() != hb[i].Act.ID() {
			t.Fatalf("replay history diverges at %d", i)
		}
	}
	if !r.Authoritative().Equal(single.Authoritative()) {
		t.Fatal("replay ζS diverged from router ζS")
	}
	for _, cid := range h.order {
		if string(h.bytes[cid]) != string(singleBytes[cid]) {
			t.Fatalf("client %d reply stream diverged between router and single-lane replay (%d vs %d bytes)",
				cid, len(h.bytes[cid]), len(singleBytes[cid]))
		}
	}
	sm := single.Metrics()
	rm := r.Metrics()
	if sm.ResumesSuffix != rm.ResumesSuffix || sm.ResumesSnapshot != rm.ResumesSnapshot {
		t.Fatalf("resume counters diverged: router %d/%d, replay %d/%d",
			rm.ResumesSuffix, rm.ResumesSnapshot, sm.ResumesSuffix, sm.ResumesSnapshot)
	}
}

// TestChurnSwarm is the fault-injection matrix: shard counts × seeds.
// The subtest name carries the failing configuration.
func TestChurnSwarm(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("shards=%d/seed=%d", shards, seed)
			t.Run(name, func(t *testing.T) {
				t.Logf("churn swarm config: shards=%d seed=%d", shards, seed)
				h := runChurn(t, shards, seed)
				verifyChurn(t, h)
				verifyReplayDifferential(t, h)
			})
		}
	}
}

// TestChurnDeterminism: the same seed must reproduce the identical
// history and reply streams — the property that makes a failing seed a
// reproducible bug report.
func TestChurnDeterminism(t *testing.T) {
	a := runChurn(t, 4, 7)
	b := runChurn(t, 4, 7)
	ha, hb := a.eng.History(), b.eng.History()
	if len(ha) != len(hb) {
		t.Fatalf("history lengths differ across identical runs: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Seq != hb[i].Seq || ha[i].Act.ID() != hb[i].Act.ID() {
			t.Fatalf("histories diverge at %d across identical runs", i)
		}
	}
	for _, cid := range a.order {
		if string(a.bytes[cid]) != string(b.bytes[cid]) {
			t.Fatalf("client %d reply stream differs across identical runs", cid)
		}
	}
}
