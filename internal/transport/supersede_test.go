package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/oracletest"
	"seve/internal/shard"
	"seve/internal/wire"
)

func supConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeFirstBound
	cfg.Strict = true
	cfg.ResumeWindow = 8
	cfg.RecordHistory = true
	// Widen Equation (1) until it covers the whole shared test world
	// (the wire decoder is process-global, so this harness must reuse
	// testWorld()): every avatar is push-eligible for every client, and
	// the laggard's queue sees the full fan-out.
	cfg.MaxSpeed = 1.0
	return cfg
}

// supHarness drives the server's Hub — engine, dispatch, SendQueue —
// without TCP: frames are popped from the queues and fed to real
// core.Client engines, so every byte crosses the same encode/decode
// boundary a socket would, deterministically.
type supHarness struct {
	t       *testing.T
	w       *manhattan.World
	cfg     core.Config
	hub     *Hub
	ids     []action.ClientID
	engines map[action.ClientID]*core.Client
	streams map[action.ClientID]*bytes.Buffer
	stalled map[action.ClientID]bool
	commits map[action.ClientID][]core.Commit
	sent    map[action.ClientID]int
	now     float64
}

// plainFIFO builds every client's queue plain FIFO where cfg would arm
// superseding: the reference leg of TestSupersedingEquivalence.
func newSupHarness(t *testing.T, cfg core.Config, nClients int, caps map[action.ClientID]int, plainFIFO bool) *supHarness {
	w := testWorld()
	h := &supHarness{
		t:       t,
		w:       w,
		cfg:     cfg,
		hub:     NewHub(ServerConfig{Core: cfg, Init: w.InitialState(0)}, new(sync.Mutex)),
		engines: make(map[action.ClientID]*core.Client),
		streams: make(map[action.ClientID]*bytes.Buffer),
		stalled: make(map[action.ClientID]bool),
		commits: make(map[action.ClientID][]core.Commit),
		sent:    make(map[action.ClientID]int),
	}
	for i := 1; i <= nClients; i++ {
		cap := sendQueueCap
		if c, ok := caps[action.ClientID(i)]; ok {
			cap = c
		}
		id, _ := h.hub.Join(0, h.hub.NewQueue(cap, supersedes(cfg) && !plainFIFO))
		h.ids = append(h.ids, id)
		h.engines[id] = core.NewClient(id, cfg, h.hub.init)
		h.streams[id] = &bytes.Buffer{}
	}
	return h
}

// submit mints and submits one move for id, whatever its stall state —
// a stalled TCP client can still upload while its downlink is jammed.
func (h *supHarness) submit(id action.ClientID) {
	cl := h.engines[id]
	mv, err := h.w.NewMove(cl.NextActionID(), manhattan.AvatarID(int(id)), cl.Optimistic())
	if err != nil {
		h.t.Fatalf("client %d: %v", id, err)
	}
	msg, _ := cl.Submit(mv)
	h.sent[id]++
	h.hub.Handle(id, msg, h.now)
}

// pump drains id's delivery queue, recording the raw bytes and applying
// every frame to the client engine; completions flow straight back into
// the server. Returns the number of frames applied.
func (h *supHarness) pump(id action.ClientID) int {
	if h.stalled[id] {
		return 0
	}
	q := h.hub.Queue(id)
	applied := 0
	for {
		frames := q.PopAll(nil, 1<<30)
		if len(frames) == 0 {
			return applied
		}
		for _, f := range frames {
			h.streams[id].Write(f.Bytes())
			m, err := wire.ReadFrame(bytes.NewReader(f.Bytes()))
			f.Release()
			if err != nil {
				h.t.Fatalf("client %d: decode popped frame: %v", id, err)
			}
			out := h.engines[id].HandleMsg(m)
			if len(out.Violations) > 0 {
				h.t.Fatalf("client %d: %s", id, out.Violations[0])
			}
			h.commits[id] = append(h.commits[id], out.Commits...)
			for _, sm := range out.ToServer {
				h.hub.Handle(id, sm, h.now)
			}
			applied++
		}
	}
}

func (h *supHarness) pumpAll() {
	for _, id := range h.ids {
		h.pump(id)
	}
}

// settle ticks and pumps until no client applies anything new.
func (h *supHarness) settle() {
	for round := 0; round < 50; round++ {
		h.now += h.cfg.PushIntervalMs()
		h.hub.Tick(h.now)
		applied := 0
		for _, id := range h.ids {
			applied += h.pump(id)
		}
		if applied == 0 {
			return
		}
	}
	h.t.Fatal("harness did not quiesce within 50 settle rounds")
}

// runKeepUp runs the scripted keep-up trace: every round each client
// submits one move, the push tick fires, and everyone drains.
func runKeepUp(t *testing.T, cfg core.Config, plainFIFO bool) *supHarness {
	h := newSupHarness(t, cfg, 3, nil, plainFIFO)
	for round := 0; round < 12; round++ {
		h.now += h.cfg.PushIntervalMs()
		for _, id := range h.ids {
			h.submit(id)
			h.pumpAll()
		}
		h.hub.Tick(h.now)
		h.pumpAll()
	}
	h.settle()
	return h
}

// TestSupersedingEquivalence is the PR's correctness headline: clients
// that keep up receive byte-identical streams whether superseding is
// armed or disabled, and none of the supersession machinery fires.
func TestSupersedingEquivalence(t *testing.T) {
	control := runKeepUp(t, supConfig(), true)
	subject := runKeepUp(t, supConfig(), false)
	if !supersedes(supConfig()) {
		t.Fatal("superseding not armed despite ResumeWindow")
	}

	for _, id := range subject.ids {
		// A mis-wired harness would compare one queue mode with itself.
		if control.hub.Queue(id).sup {
			t.Fatalf("client %d: control leg did not run the plain FIFO queue", id)
		}
		if !subject.hub.Queue(id).sup {
			t.Fatalf("client %d: subject leg did not run the superseding queue", id)
		}
		got, want := subject.streams[id].Bytes(), control.streams[id].Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("client %d: superseding stream (%d bytes) diverges from control (%d bytes)",
				id, len(got), len(want))
		}
		if len(got) == 0 {
			t.Fatalf("client %d: empty stream — the trace exercised nothing", id)
		}
	}
	for name, h := range map[string]*supHarness{"control": control, "subject": subject} {
		ss := h.hub.Metrics()
		if ss.FramesSuperseded != 0 || ss.FramesCoalesced != 0 || ss.SnapshotFallbacks != 0 || ss.WriteQueueDrops != 0 {
			t.Fatalf("%s: supersession fired on keep-up clients: %+v", name, ss)
		}
	}
}

// runLaggy runs the adversarial trace: client 3 gets a 4-frame queue and
// stalls (downlink jammed, uplink alive) across a burst of traffic, then
// comes back and drains.
func runLaggy(t *testing.T, cfg core.Config) *supHarness {
	const laggard = action.ClientID(3)
	h := newSupHarness(t, cfg, 3, map[action.ClientID]int{laggard: 4}, false)
	for round := 0; round < 24; round++ {
		h.now += h.cfg.PushIntervalMs()
		if round == 3 {
			h.stalled[laggard] = true
		}
		if round == 18 {
			h.stalled[laggard] = false
		}
		for _, id := range h.ids {
			if id == laggard && round%3 != 0 {
				continue // the laggard submits sparsely
			}
			h.submit(id)
			h.pumpAll()
		}
		h.hub.Tick(h.now)
		h.pumpAll()
	}
	h.settle()
	return h
}

// verifySupersession runs the Theorem 1 serial-replay oracle over a
// drained laggy harness: ζS and every client's ζCS must match the
// omniscient serial replay, every submission must commit exactly once,
// and the supersession machinery must actually have fired.
func verifySupersession(t *testing.T, h *supHarness) {
	hist := h.hub.engine.History()
	for i, env := range hist {
		if env.Seq != uint64(i+1) {
			t.Fatalf("history gap at %d: seq %d", i, env.Seq)
		}
	}
	if got := h.hub.engine.Installed(); got != uint64(len(hist)) {
		t.Fatalf("installed %d of %d actions", got, len(hist))
	}
	if got := h.hub.engine.QueueLen(); got != 0 {
		t.Fatalf("server queue still holds %d actions", got)
	}

	// ζS equals the omniscient serial replay.
	oracle := oracletest.Replay(h.w.InitialState(0), hist)
	if !h.hub.engine.Authoritative().Equal(oracle.Final()) {
		t.Fatal("authoritative state ζS diverged from serial oracle")
	}

	pruned := false
	for _, cid := range h.ids {
		cl := h.engines[cid]
		if got := cl.QueueLen(); got != 0 {
			t.Fatalf("client %d still has %d in-flight actions", cid, got)
		}
		if len(h.commits[cid]) != h.sent[cid] {
			t.Fatalf("client %d committed %d of %d submissions", cid, len(h.commits[cid]), h.sent[cid])
		}
		seen := make(map[uint64]bool, len(h.commits[cid]))
		for _, c := range h.commits[cid] {
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
		// ζCS: every held version serial-replay consistent — bounded
		// staleness means the laggard converged to the same stable world,
		// just possibly through a snapshot rather than every batch.
		cs := cl.Stable()
		oracle.CheckStable(t, fmt.Sprintf("client %d", cid), cs)
		pruned = pruned || cs.Versions() < cs.Stored()
	}
	if !pruned {
		t.Fatal("no client's garbage collection removed a version")
	}

	// The adversarial trace must actually have exercised the ladder.
	ss := h.hub.Metrics()
	if ss.FramesSuperseded == 0 {
		t.Errorf("no frames superseded despite the stalled 4-frame queue: %+v", ss)
	}
	if ss.SnapshotFallbacks == 0 {
		t.Errorf("no snapshot fallbacks despite unsupersedable overflow: %+v", ss)
	}
	if ss.MaxStaleObjects == 0 {
		t.Errorf("staleness gauge never moved during the stall: %+v", ss)
	}
	if ss.WriteQueueDrops != 0 {
		t.Errorf("superseding queue fell back to blind drops: %+v", ss)
	}
	// The laggard's engine observed the supersession: batch numbering
	// jumped over the replaced frames.
	if st := h.engines[3].Metrics(); st.Superseded == 0 {
		t.Errorf("laggard applied every batch seq individually despite supersession: %+v", st)
	}
	// Everyone drained: nobody is left stale.
	for _, cid := range h.ids {
		if n := h.hub.Queue(cid).StaleObjects(); n != 0 {
			t.Errorf("client %d still stale over %d objects after drain", cid, n)
		}
	}
}

// TestSupersedingLaggardConverges: the laggy half of the headline — a
// stalled client whose queue superseded and snapshotted still converges
// to the oracle's ζCS, with the machinery provably engaged.
func TestSupersedingLaggardConverges(t *testing.T) {
	verifySupersession(t, runLaggy(t, supConfig()))
}

// TestSupersedingLaggardShardedReplay reruns the laggy trace on the
// sharded router and replays its effective log — mid-session
// SnapshotCatchUp barriers included — through a fresh single-lane
// engine, which must reproduce the identical history and ζS.
func TestSupersedingLaggardShardedReplay(t *testing.T) {
	cfg := supConfig()
	cfg.Shards = 4
	h := runLaggy(t, cfg)

	r, ok := h.hub.engine.(*shard.Router)
	if !ok {
		t.Fatalf("engine is %T, want *shard.Router", h.hub.engine)
	}
	log := r.EffectiveLog()
	snaps := 0
	for _, le := range log {
		if le.Snap {
			snaps++
		}
	}
	if snaps == 0 {
		t.Fatal("no SnapshotCatchUp barriers recorded in the effective log")
	}

	single := cfg
	single.Shards = 0
	eng := core.NewServer(single, h.w.InitialState(0))
	shard.Replay(eng, log)

	if got, want := eng.Installed(), h.hub.engine.Installed(); got != want {
		t.Fatalf("replay installed %d, router installed %d", got, want)
	}
	if !eng.Authoritative().Equal(h.hub.engine.Authoritative()) {
		t.Fatal("single-lane replay of the effective log diverged from the router's ζS")
	}
	rh, sh := h.hub.engine.History(), eng.History()
	if len(rh) != len(sh) {
		t.Fatalf("history length: router %d, replay %d", len(rh), len(sh))
	}
	for i := range rh {
		if rh[i].Seq != sh[i].Seq || rh[i].Origin != sh[i].Origin {
			t.Fatalf("history diverges at %d: router %v/%d, replay %v/%d",
				i, rh[i].Origin, rh[i].Seq, sh[i].Origin, sh[i].Seq)
		}
	}
}
