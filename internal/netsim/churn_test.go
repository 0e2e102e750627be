package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/oracletest"
	"seve/internal/shard"
	"seve/internal/sim"
	"seve/internal/transport"
	"seve/internal/wire"
	"seve/internal/world"
)

// The churn swarm: a deterministic fault-injection harness for the
// session resume protocol. A sharded SEVE server behind the server's own
// transport.Hub and a fleet of clients run over the simulated network,
// every message crossing it as an encoded frame; scripted and
// seeded-random disconnects kill clients mid-flight (losing in-flight
// batches, submissions, and completions with the connection), reconnects
// replay the Resume/CatchUp handshake over the wire, and at the end the
// Theorem 1 oracle checks that every client's ζCS is serial-replay
// consistent, every action committed exactly once, and — when the
// engine is a shard router — that replaying the effective log through a
// single-lane hub delivers every frame byte for byte. Failing subtests
// carry the shard count and seed in their name.

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

// MarshalBody encodes delta, the sizes of rs and ws, then their ids.
func (a *churnAction) MarshalBody() []byte {
	buf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.delta))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a.rs)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a.ws)))
	for _, id := range slices.Concat(a.rs, a.ws) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// unmarshalChurn is kindChurn's decoder. It cuts the action and its id
// sets from the batch's slab, as manhattan.UnmarshalMove does, so the
// matrices keep a batch's arena pinned while the engines retain its
// actions (DESIGN.md §8).
func unmarshalChurn(id action.ID, body []byte, slab *world.Slab) (action.Action, error) {
	if len(body) < 12 {
		return nil, fmt.Errorf("churn body truncated: %d bytes", len(body))
	}
	nr, nw := int(binary.LittleEndian.Uint16(body[8:])), int(binary.LittleEndian.Uint16(body[10:]))
	if len(body) != 12+8*(nr+nw) {
		return nil, fmt.Errorf("churn body of %d bytes for %d+%d ids", len(body), nr, nw)
	}
	a := world.Obj[churnAction](slab)
	a.id, a.delta = id, math.Float64frombits(binary.LittleEndian.Uint64(body))
	ids := slab.IDs(nr + nw)
	for i := range ids {
		ids[i] = world.ObjectID(binary.LittleEndian.Uint64(body[12+8*i:]))
	}
	a.rs, a.ws = ids[:nr:nr], ids[nr:]
	return a, nil
}

// frames is one write of encoded wire frames on a link, stamped on the
// uplink with the sender's connection generation: the server node drops
// writes of dead generations (RemoveNode kills the downlink half). An
// empty write down a link is the server hanging up, after the frames
// written before it.
type frames struct {
	gen int
	b   []byte
}

func (f frames) WireSize() int { return len(f.b) }

type churnClient struct {
	id        action.ClientID
	node      NodeID
	engine    *core.Client
	token     uint64 // the session token the Welcome granted
	connected bool
	// resuming marks the Resume → CatchUp window, in which the transport
	// sends nothing new: a fresh submission ahead of the re-submissions
	// would lift the server's dedup floor past the backlog and swallow it.
	resuming bool
	gen      int
	// q is the server's end of the connection: the delivery queue the
	// hub dispatches to, nil while the server holds no connection.
	q         *transport.SendQueue
	commits   []core.Commit
	submitted int
}

type churnHarness struct {
	t       *testing.T
	k       *sim.Kernel
	net     *Network
	hub     *transport.Hub
	clients map[action.ClientID]*churnClient
	order   []action.ClientID
	init    *world.State
	cfg     core.Config

	violations []string
	// trace, when set, observes each message a client is about to process.
	trace func(cl *churnClient, msg wire.Msg)
	// tamper, when set, rewrites a client's decoded uplink messages — the
	// cheat-injection seam (cheat_test.go).
	tamper func(cl *churnClient, msg wire.Msg) wire.Msg
	// bytes collects the frames popped for each client, the stream the
	// server writes, for the replay differential; popped counts them.
	// leftAt holds each client's stream length at each of its leaves.
	bytes  map[action.ClientID][]byte
	leftAt map[action.ClientID][]int
	popped int
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

// newChurnHarness builds the harness around an explicit engine
// configuration (the cheat matrix tightens bounds and audit rates). A
// non-nil store journals from before the first join, so session opens
// are journaled from the very first mint, the order the server's boot
// path guarantees.
func newChurnHarness(t *testing.T, cfg core.Config, nClients, nObjects int, store *durable.Store) *churnHarness {
	init := churnInit(nObjects)
	k := sim.NewKernel()
	h := &churnHarness{
		t:       t,
		k:       k,
		net:     New(k, LinkConfig{Latency: 5, BandwidthBps: 0}),
		hub:     transport.NewHub(transport.ServerConfig{Core: cfg, Init: init, Durable: store}, new(sync.Mutex)),
		clients: make(map[action.ClientID]*churnClient),
		init:    init,
		cfg:     cfg,
		bytes:   make(map[action.ClientID][]byte),
		leftAt:  make(map[action.ClientID][]int),
	}
	h.net.AddNode(ServerNode, h.serve)
	for i := 1; i <= nClients; i++ {
		h.join()
	}
	return h
}

// newQueue builds a delivery queue of the TCP server's size and, for
// h.cfg, its mode: superseding when the engine keeps sessions and relays
// no hybrid fan-out. The harness pops every queue after every hub call,
// so none fills.
func (h *churnHarness) newQueue() *transport.SendQueue {
	return h.hub.NewQueue(256, h.cfg.ResumeWindow > 0 && !h.cfg.HybridRelay)
}

// join connects a fresh client through the hub's Hello path; its replica
// starts from the Welcome's world and boot, as transport.Client's does.
func (h *churnHarness) join() (*churnClient, *wire.Welcome) {
	q := h.newQueue()
	cid, w := h.hub.Join(0, q)
	init := world.NewState()
	for _, wr := range w.Init {
		init.Set(wr.ID, wr.Val)
	}
	cl := &churnClient{id: cid, node: NodeID(cid), engine: core.NewClient(cid, h.cfg, init), token: w.Token, connected: true, q: q}
	cl.engine.SetBoot(w.Boot)
	h.clients[cid] = cl
	h.order = append(h.order, cid)
	h.attach(cl)
	return cl, w
}

// decode reads the frames of one write.
func (h *churnHarness) decode(b []byte) []wire.Msg {
	var ms []wire.Msg
	for r := bytes.NewReader(b); r.Len() > 0; {
		m, err := wire.ReadFrame(r)
		if err != nil {
			h.t.Fatalf("decode frame: %v", err)
		}
		ms = append(ms, m)
	}
	return ms
}

// serve is the server node: it decodes an uplink write, runs it through
// the hub, and delivers what the hub queued.
func (h *churnHarness) serve(from NodeID, msg Message) {
	f := msg.(frames)
	cl := h.clients[action.ClientID(from)]
	if f.gen != cl.gen || cl.q == nil {
		return // uplink traffic from a dead connection
	}
	for _, m := range h.decode(f.b) {
		if h.tamper != nil {
			m = h.tamper(cl, m)
		}
		now := float64(h.k.Now())
		if rm, isResume := m.(*wire.Resume); isResume {
			if cid, _ := h.hub.Resume(rm, cl.q, now); cid != cl.id {
				h.violations = append(h.violations, fmt.Sprintf("resume for client %d resolved to %d", cl.id, cid))
			}
		} else {
			h.hub.Handle(cl.id, m, now)
		}
		h.deliver()
	}
}

// pop records the frames the hub queued for cl and returns their bytes.
func (h *churnHarness) pop(cl *churnClient) []byte {
	from := len(h.bytes[cl.id])
	for _, f := range cl.q.PopAll(nil, 1<<30) {
		h.bytes[cl.id] = append(h.bytes[cl.id], f.Bytes()...)
		f.Release()
		h.popped++
	}
	return h.bytes[cl.id][from:]
}

// deliver pops every client's queue and sends the frames down its link
// in one write, as the writer pumps do. A poisoned queue that has
// drained hangs up: the hang-up follows the verdict down the link, and
// the server leaves.
func (h *churnHarness) deliver() {
	for _, cid := range h.order {
		cl := h.clients[cid]
		if cl.q == nil {
			continue
		}
		if b := h.pop(cl); len(b) > 0 {
			h.net.Send(ServerNode, cl.node, frames{b: slices.Clone(b)})
		}
		if cl.q.Poisoned() {
			q := cl.q
			cl.q = nil
			h.net.Send(ServerNode, cl.node, frames{})
			h.leave(cl.id, q)
		}
	}
}

// leave tears the server's end of a connection down, mid-epoch or not,
// and notes how much of the client's stream preceded it.
func (h *churnHarness) leave(id action.ClientID, q *transport.SendQueue) {
	if h.hub.Queue(id) == q {
		h.leftAt[id] = append(h.leftAt[id], len(h.bytes[id]))
	}
	h.hub.Leave(id, q)
}

// attach registers the client's node handler for its current connection.
func (h *churnHarness) attach(cl *churnClient) {
	h.net.AddNode(cl.node, func(_ NodeID, msg Message) {
		f := msg.(frames)
		if len(f.b) == 0 {
			h.cut(cl) // the server hung up
			return
		}
		for _, m := range h.decode(f.b) {
			if h.trace != nil {
				h.trace(cl, m)
			}
			out := cl.engine.HandleMsg(m)
			if _, isVerdict := m.(*wire.CatchUp); isVerdict {
				// Handshake complete: the backlog re-submissions are in
				// out and will precede anything submitted from here on.
				cl.resuming = false
			}
			h.absorb(cl, out)
		}
	})
}

func (h *churnHarness) absorb(cl *churnClient, out core.ClientOutput) {
	// A boot fence withdraws commits whose positions the crash rolled
	// back; the engine re-submits those actions and re-reports them at
	// their re-issued positions.
	for _, rv := range out.Revoked {
		if i := slices.IndexFunc(cl.commits, func(c core.Commit) bool { return c.ActID == rv.ActID && c.Seq == rv.Seq }); i >= 0 {
			cl.commits = slices.Delete(cl.commits, i, i+1)
		}
	}
	cl.commits = append(cl.commits, out.Commits...)
	h.violations = append(h.violations, out.Violations...)
	for _, m := range out.ToServer {
		h.send(cl, m)
	}
}

// send encodes m at the client and puts it on the uplink.
func (h *churnHarness) send(cl *churnClient, m wire.Msg) {
	h.net.Send(cl.node, ServerNode, frames{gen: cl.gen, b: wire.AppendFrame(nil, m)})
}

// submit mints a random action over objects lo..hi. A disconnected
// client still queues it optimistically — the resume handshake
// re-submits the backlog.
func (h *churnHarness) submit(cl *churnClient, rng *rand.Rand, lo, hi int) {
	a := world.ObjectID(lo + rng.Intn(hi-lo+1))
	b := world.ObjectID(lo + rng.Intn(hi-lo+1))
	act := &churnAction{rs: world.NewIDSet(a, b), ws: world.IDSet{a}, delta: float64(rng.Intn(100))}
	act.id = cl.engine.NextActionID()
	msg, _ := cl.engine.Submit(act)
	cl.submitted++
	if cl.connected && !cl.resuming {
		h.send(cl, msg)
	}
}

// cut kills cl's connection at the client: the downlink node disappears
// (in-flight frames die) and the uplink generation is burned (in-flight
// submissions and completions die).
func (h *churnHarness) cut(cl *churnClient) {
	if !cl.connected {
		return
	}
	cl.connected = false
	cl.gen++
	h.net.RemoveNode(cl.node)
}

// disconnect models the transport's leave path: the connection dies and
// the server leaves.
func (h *churnHarness) disconnect(cl *churnClient) {
	h.cut(cl)
	if cl.q != nil {
		h.leave(cl.id, cl.q)
		cl.q = nil
	}
}

// reconnect opens a new connection and replays the Resume handshake over
// the wire.
func (h *churnHarness) reconnect(cl *churnClient) {
	if cl.connected {
		return
	}
	cl.connected, cl.resuming = true, true
	cl.q = h.newQueue()
	h.attach(cl)
	h.send(cl, &wire.Resume{Token: cl.token, LastBatchSeq: cl.engine.LastAppliedBatch()})
}

// flush closes the open epoch, like the TCP loop's queue-dry flush.
func (h *churnHarness) flush() {
	h.hub.Flush(float64(h.k.Now()))
	h.deliver()
}

// runChurn plays the scripted + seeded-random fault schedule and drains.
func runChurn(t *testing.T, shards int, seed int64) *churnHarness {
	const nClients, nObjects = 5, 12
	h := newChurnHarness(t, churnConfig(shards), nClients, nObjects, nil)
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
		k.At(ms, h.flush)
	}

	// Random phase: submissions everywhere, churn on clients 3..N
	// (clients 1 and 2 are reserved for the scripted faults below).
	for step := 0; step < 30; step++ {
		at := sim.Time(step * 10)
		k.At(at, func() {
			cl := h.clients[h.order[rng.Intn(len(h.order))]]
			if cl.connected || rng.Float64() < 0.3 {
				h.submit(cl, rng, 1, nObjects)
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
			h.submit(c2, rng, 1, nObjects)
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
				h.submit(cl, rng, 1, nObjects)
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
	oracle := oracletest.Replay(h.init, drained(t, h, 0))
	requireSerial(t, h, oracle)
	verifyClients(t, h, oracle, h.order)
	requirePruned(t, h)

	// Both repair paths must have fired: the scripted burst forces a
	// snapshot past the window, the quiet-window drop a suffix replay.
	ss := h.hub.Metrics()
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
	// out with a spotless ledger (AuditsRun alone may move). The counters
	// are never negative, so their sum is 0 only when each is.
	if ss.QuarantinedClients+ss.QuarantineRejected+ss.ContractBreaches+ss.ForgedCompletions+ss.AuditDivergences+
		ss.RepairedResults+ss.RateLimited+ss.WriteSetViolations+ss.RadiusViolations+ss.OrphanCompletions != 0 {
		t.Errorf("honest churn tripped the integrity layer: %+v", ss)
	}
}

// verifyClients holds clients cids to the oracle: each submitted action
// committed exactly once with the oracle's result, no duplicate or
// missing serials, queues empty, ζCS serial-replay consistent per held
// version.
func verifyClients(t *testing.T, h *churnHarness, oracle *oracletest.Oracle, cids []action.ClientID) {
	t.Helper()
	for _, cid := range cids {
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

// drained fails on any protocol violation, holds h's engine to a history
// contiguous from serial base+1 and installed to its end, and returns it.
func drained(t *testing.T, h *churnHarness, base uint64) (hist []action.Envelope) {
	t.Helper()
	if len(h.violations) > 0 {
		t.Fatalf("protocol violations (%d), first: %s", len(h.violations), h.violations[0])
	}
	h.hub.Engine(func(eng core.Engine) {
		hist = eng.History()
		for i, env := range hist {
			if env.Seq != base+uint64(i+1) {
				t.Fatalf("history gap at %d: seq %d, want %d", i, env.Seq, base+uint64(i+1))
			}
		}
		if got, want := eng.Installed(), base+uint64(len(hist)); got != want {
			t.Fatalf("installed %d, history ends at %d", got, want)
		}
	})
	return hist
}

// requireSerial fails unless h's engine holds no uncommitted action and
// its ζS equals the oracle's serial replay.
func requireSerial(t *testing.T, h *churnHarness, oracle *oracletest.Oracle) {
	t.Helper()
	h.hub.Engine(func(eng core.Engine) {
		if got := eng.QueueLen(); got != 0 {
			t.Fatalf("server queue still holds %d actions", got)
		}
		if !eng.Authoritative().Equal(oracle.Final()) {
			t.Fatal("authoritative state ζS diverged from the serial oracle")
		}
	})
}

// sameRun fails unless a and b serialized the same actions at the same
// positions and popped the same frames for every client.
func sameRun(t *testing.T, what string, a, b *churnHarness) {
	t.Helper()
	ha, hb := history(a), history(b)
	if len(ha) != len(hb) {
		t.Fatalf("%s: history lengths %d and %d", what, len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Seq != hb[i].Seq || ha[i].Act.ID() != hb[i].Act.ID() {
			t.Fatalf("%s: histories diverge at %d", what, i)
		}
	}
	for _, cid := range a.order {
		if string(a.bytes[cid]) != string(b.bytes[cid]) {
			t.Fatalf("%s: client %d reply stream differs (%d vs %d bytes)", what, cid, len(a.bytes[cid]), len(b.bytes[cid]))
		}
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

// verifyReplayDifferential replays the router's effective log through a
// single-lane hub, which must serialize the same history into the same
// ζS and pop the same frames for every client, resume handling and
// verdicts included. A reply a poisoned queue refuses is counted: both
// hubs must refuse the same number.
func verifyReplayDifferential(t *testing.T, h *churnHarness) {
	var log []shard.LogEntry
	var zs *world.State
	h.hub.Engine(func(eng core.Engine) {
		if r, ok := eng.(*shard.Router); ok {
			log, zs = r.EffectiveLog(), r.Authoritative()
		}
	})
	if log == nil {
		return // shards=1 already runs the single lane
	}
	single := &churnHarness{cfg: h.cfg, clients: make(map[action.ClientID]*churnClient), bytes: make(map[action.ClientID][]byte)}
	single.cfg.Shards = 1
	single.hub = transport.NewHub(transport.ServerConfig{Core: single.cfg, Init: h.init}, new(sync.Mutex))
	left, gone, lost := make(map[action.ClientID]int), make(map[action.ClientID]bool), 0
	for _, le := range log {
		rs, isResume := le.Msg.(*wire.Resume)
		switch q := single.newQueue(); {
		case le.Join:
			id, _ := single.hub.Join(le.Mask, q)
			single.clients[id] = &churnClient{id: id, q: q}
			single.order = append(single.order, id)
		case le.Leave:
			cl := single.clients[le.From]
			single.hub.Leave(cl.id, cl.q)
			cl.q = nil
			// What the router's leave barrier flushed to the leaver found
			// no writer; the single lane sent it before the leave. It dies
			// with the connection, so cut the stream where the router's stood.
			at := h.leftAt[cl.id][left[cl.id]]
			if left[cl.id]++; at > len(single.bytes[cl.id]) {
				t.Fatalf("client %d left after %d bytes under the router, %d under the replay", cl.id, at, len(single.bytes[cl.id]))
			}
			lost += len(single.bytes[cl.id]) - at
			single.bytes[cl.id] = single.bytes[cl.id][:at]
			gone[cl.id] = true
		case isResume:
			if id, _ := single.hub.Resume(rs, q, le.NowMs); id != 0 {
				single.clients[id].q, gone[id] = q, false
			}
		case gone[le.From]:
			t.Fatalf("client %d's %T was stamped after its leave, which must be a barrier", le.From, le.Msg)
		case le.Msg != nil:
			single.hub.Handle(le.From, le.Msg, le.NowMs)
		default:
			t.Fatalf("log entry %+v: the harness neither ticks nor fills a queue", le)
		}
		for _, cl := range single.clients {
			if cl.q != nil {
				single.pop(cl)
			}
		}
	}
	t.Logf("leaves mid-epoch lost %d bytes of replies", lost)
	sameRun(t, "router vs single-lane replay", h, single)
	single.hub.Engine(func(eng core.Engine) {
		if !zs.Equal(eng.Authoritative()) {
			t.Fatal("replay ζS diverged from router ζS")
		}
	})
	re, _ := h.hub.Counts()
	se, _ := single.hub.Counts()
	if re-h.popped != se-single.popped {
		t.Fatalf("poisoned queues refused %d replies under the router, %d under the replay", re-h.popped, se-single.popped)
	}
	sm, rm := single.hub.Metrics(), h.hub.Metrics()
	if sm.ResumesSuffix != rm.ResumesSuffix || sm.ResumesSnapshot != rm.ResumesSnapshot {
		t.Fatalf("resume counters diverged: router %d/%d, replay %d/%d", rm.ResumesSuffix, rm.ResumesSnapshot, sm.ResumesSuffix, sm.ResumesSnapshot)
	}
}

// history returns the serialized history of h's engine.
func history(h *churnHarness) (hist []action.Envelope) {
	h.hub.Engine(func(eng core.Engine) { hist = eng.History() })
	return hist
}

// TestChurnSwarm is the fault-injection matrix: shard counts × seeds.
// The subtest name carries the failing configuration.
func TestChurnSwarm(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("shards=%d/seed=%d", shards, seed)
			t.Run(name, func(t *testing.T) {
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
	sameRun(t, "identical runs", runChurn(t, 4, 7), runChurn(t, 4, 7))
}
