package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/oracletest"
	"seve/internal/wire"
	"seve/internal/world"
)

// testAction mirrors the core harness action: it reads every object in
// rs, sums their first attributes, and writes sum+delta into every
// object in ws (ws ⊆ rs). The written value depends on the read values,
// so any serial-order divergence between engines changes bytes.
type testAction struct {
	id     action.ID
	rs, ws world.IDSet
	delta  float64
	pos    geom.Vec
	radius float64
	hasPos bool
}

const kindTestAction action.Kind = 2000

func (a *testAction) ID() action.ID         { return a.id }
func (a *testAction) Kind() action.Kind     { return kindTestAction }
func (a *testAction) ReadSet() world.IDSet  { return a.rs }
func (a *testAction) WriteSet() world.IDSet { return a.ws }

func (a *testAction) Apply(tx *world.Tx) bool {
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

func (a *testAction) MarshalBody() []byte {
	buf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(a.delta))
	for _, id := range a.rs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

func (a *testAction) Influence() geom.Circle {
	if !a.hasPos {
		return geom.Circle{}
	}
	return geom.Circle{Center: a.pos, R: a.radius}
}

// --- workload generation ---

const objsPerGroup = 8

// groupCenter places each object group in its own spatial-partition
// cell (centres 300 apart, cell size 100), so every group maps to one
// lane and distinct groups usually map to distinct lanes.
func groupCenter(g int) geom.Vec {
	return geom.Vec{X: float64(g)*300 + 50, Y: float64(g)*300 + 50}
}

func groupObject(g, i int) world.ObjectID {
	return world.ObjectID(g*objsPerGroup + i + 1)
}

// genWorld builds the initial state: nGroups groups of objects, object
// id as its first attribute.
func genWorld(nGroups int) *world.State {
	s := world.NewState()
	for g := 0; g < nGroups; g++ {
		for i := 0; i < objsPerGroup; i++ {
			id := groupObject(g, i)
			s.Set(id, world.Value{float64(id)})
		}
	}
	return s
}

// genAction builds one action for client cid: usually local to the
// client's home group, sometimes (crossFrac) spanning a second group —
// the cross-shard case.
func genAction(rng *rand.Rand, cid action.ClientID, nGroups int, crossFrac float64) *testAction {
	g := int(cid) % nGroups
	c := groupCenter(g)
	pick := func(g int) world.ObjectID { return groupObject(g, rng.Intn(objsPerGroup)) }
	a := &testAction{
		delta:  float64(rng.Intn(1000)) / 8,
		pos:    geom.Vec{X: c.X + rng.Float64()*40 - 20, Y: c.Y + rng.Float64()*40 - 20},
		radius: 5,
		hasPos: true,
	}
	o1, o2 := pick(g), pick(g)
	if rng.Float64() < crossFrac && nGroups > 1 {
		g2 := (g + 1 + rng.Intn(nGroups-1)) % nGroups
		o2 = pick(g2)
	}
	if o1 == o2 {
		a.rs = world.IDSet{o1}
	} else if o1 < o2 {
		a.rs = world.IDSet{o1, o2}
	} else {
		a.rs = world.IDSet{o2, o1}
	}
	a.ws = world.IDSet{o1}
	return a
}

// --- generic engine loopback ---

// loopback shuttles messages between one engine and its clients with
// per-link FIFO order and an rng-chosen global interleaving, flushing
// the router's epochs at random points like an idle transport would.
type loopback struct {
	t       *testing.T
	eng     core.Engine
	clients map[action.ClientID]*core.Client
	order   []action.ClientID

	toServer []srvMsg
	toClient map[action.ClientID][]wire.Msg

	// script holds the not-yet-submitted actions, per client.
	script map[action.ClientID][]*testAction

	// bytes accumulates every reply delivered to each client, encoded.
	bytes map[action.ClientID][]byte

	nowMs      float64
	commits    []core.Commit
	drops      []action.ID
	violations []string
	submitted  int
}

type srvMsg struct {
	from action.ClientID
	msg  wire.Msg
}

func newLoopback(t *testing.T, eng core.Engine, cfg core.Config, init *world.State, nClients int) *loopback {
	t.Helper()
	lb := &loopback{
		t:        t,
		eng:      eng,
		clients:  make(map[action.ClientID]*core.Client),
		toClient: make(map[action.ClientID][]wire.Msg),
		script:   make(map[action.ClientID][]*testAction),
		bytes:    make(map[action.ClientID][]byte),
	}
	for i := 1; i <= nClients; i++ {
		id := action.ClientID(i)
		lb.clients[id] = core.NewClient(id, cfg, init)
		lb.eng.RegisterClient(id, 0)
		lb.order = append(lb.order, id)
	}
	return lb
}

func (lb *loopback) deliverOut(out core.ServerOutput) {
	for _, r := range out.Replies {
		lb.bytes[r.To] = wire.AppendFrame(lb.bytes[r.To], r.Msg)
		lb.toClient[r.To] = append(lb.toClient[r.To], r.Msg)
	}
}

func (lb *loopback) submitNext(cid action.ClientID) bool {
	s := lb.script[cid]
	if len(s) == 0 {
		return false
	}
	a := s[0]
	lb.script[cid] = s[1:]
	c := lb.clients[cid]
	a.id = c.NextActionID()
	msg, _ := c.Submit(a)
	lb.toServer = append(lb.toServer, srvMsg{from: cid, msg: msg})
	lb.submitted++
	return true
}

func (lb *loopback) stepServer() bool {
	if len(lb.toServer) == 0 {
		return false
	}
	fm := lb.toServer[0]
	lb.toServer = lb.toServer[1:]
	lb.nowMs += 0.25
	lb.deliverOut(lb.eng.HandleMsg(fm.from, fm.msg, lb.nowMs))
	return true
}

func (lb *loopback) flush() {
	if f, ok := lb.eng.(core.Flusher); ok {
		lb.deliverOut(f.Flush())
	}
}

func (lb *loopback) tick() {
	lb.nowMs += 1
	lb.deliverOut(lb.eng.Tick(lb.nowMs))
}

func (lb *loopback) stepClient(cid action.ClientID) bool {
	q := lb.toClient[cid]
	if len(q) == 0 {
		return false
	}
	msg := q[0]
	lb.toClient[cid] = q[1:]
	out := lb.clients[cid].HandleMsg(msg)
	for _, m := range out.ToServer {
		lb.toServer = append(lb.toServer, srvMsg{from: cid, msg: m})
	}
	for _, p := range out.ToPeers {
		lb.toClient[p.To] = append(lb.toClient[p.To], p.Msg)
	}
	lb.commits = append(lb.commits, out.Commits...)
	lb.drops = append(lb.drops, out.DroppedLocal...)
	lb.violations = append(lb.violations, out.Violations...)
	return true
}

// drive pumps the whole workload with an rng-chosen interleaving:
// submissions, server deliveries, client deliveries, epoch flushes, and
// (in the push modes) ticks. Terminates when every queue is quiescent.
func (lb *loopback) drive(rng *rand.Rand, withTicks bool) {
	for {
		type choice func() bool
		var choices []choice
		for _, cid := range lb.order {
			if len(lb.script[cid]) > 0 {
				cid := cid
				choices = append(choices, func() bool { return lb.submitNext(cid) })
			}
			if len(lb.toClient[cid]) > 0 {
				cid := cid
				choices = append(choices, func() bool { return lb.stepClient(cid) })
			}
		}
		if len(lb.toServer) > 0 {
			// Weight server deliveries so epochs actually batch several
			// submissions before a flush interleaves.
			for i := 0; i < 3; i++ {
				choices = append(choices, lb.stepServer)
			}
		}
		if len(choices) == 0 {
			// Nothing deliverable: flush any buffered epoch (and push
			// the window, in tick modes); if that surfaces nothing new,
			// the run is quiescent.
			lb.flush()
			if withTicks {
				lb.tick()
			}
			quiet := len(lb.toServer) == 0
			for _, cid := range lb.order {
				quiet = quiet && len(lb.toClient[cid]) == 0
			}
			if quiet {
				return
			}
			continue
		}
		// Occasionally flush or tick mid-stream to vary epoch shapes.
		r := rng.Float64()
		if r < 0.03 {
			lb.flush()
			continue
		}
		if withTicks && r < 0.05 {
			lb.tick()
			continue
		}
		choices[rng.Intn(len(choices))]()
	}
}

func (lb *loopback) requireNoViolations() {
	lb.t.Helper()
	if len(lb.violations) > 0 {
		lb.t.Fatalf("protocol violations:\n%s", lb.violations[0])
	}
}

// historyBytes encodes an engine's installed history as one frame.
func historyBytes(t *testing.T, eng core.Engine) []byte {
	t.Helper()
	return wire.AppendFrame(nil, &wire.Batch{Envs: eng.History()})
}

// --- the differential harness ---

func shardedCfg(mode core.Mode, shards int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.Strict = true
	cfg.RecordHistory = true
	cfg.Threshold = 1e9
	cfg.ShardCellSize = 100
	cfg.Shards = shards
	return cfg
}

// runSharded runs one randomized workload through a sharded router and
// returns the router plus the loopback (for its reply bytes).
func runSharded(t *testing.T, cfg core.Config, nClients, nGroups, acts int, crossFrac float64, seed int64) (*Router, *loopback) {
	t.Helper()
	init := genWorld(nGroups)
	r := New(cfg, init)
	t.Cleanup(r.Close)
	lb := newLoopback(t, r, cfg, init, nClients)
	rng := rand.New(rand.NewSource(seed))
	for _, cid := range lb.order {
		for k := 0; k < acts; k++ {
			lb.script[cid] = append(lb.script[cid], genAction(rng, cid, nGroups, crossFrac))
		}
	}
	lb.drive(rng, cfg.Mode >= core.ModeFirstBound)
	lb.requireNoViolations()
	return r, lb
}

// replaySingle replays the router's effective order through the
// single-lane reference engine and returns it with the reply bytes each
// client would have seen.
func replaySingle(cfg core.Config, nGroups int, r *Router) (*core.Server, map[action.ClientID][]byte) {
	eng := core.NewServer(cfg, genWorld(nGroups))
	singleBytes := make(map[action.ClientID][]byte)
	for _, out := range Replay(eng, r.EffectiveLog()) {
		for _, rep := range out.Replies {
			singleBytes[rep.To] = wire.AppendFrame(singleBytes[rep.To], rep.Msg)
		}
	}
	return eng, singleBytes
}

// requireSameBytes is the differential contract: installed history and
// every client-visible reply, byte for byte.
func requireSameBytes(t *testing.T, r *Router, lb *loopback, eng *core.Server, singleBytes map[action.ClientID][]byte) {
	t.Helper()
	if got, want := historyBytes(t, r), historyBytes(t, eng); string(got) != string(want) {
		t.Fatalf("installed history diverged: %d vs %d bytes", len(got), len(want))
	}
	for _, cid := range lb.order {
		if string(lb.bytes[cid]) != string(singleBytes[cid]) {
			t.Fatalf("client %d reply stream diverged: %d vs %d bytes",
				cid, len(lb.bytes[cid]), len(singleBytes[cid]))
		}
	}
}

// TestShardedEquivalence is the differential determinism harness of the
// sharded serializer: for randomized workloads × shard counts ×
// delivery orders, replaying the router's effective order through the
// single-lane engine must reproduce the installed history and every
// client-visible batch byte for byte.
func TestShardedEquivalence(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeIncomplete, core.ModeInfoBound} {
		for _, shards := range []int{2, 4, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("mode=%v/shards=%d/seed=%d", mode, shards, seed)
				t.Run(name, func(t *testing.T) {
					cfg := shardedCfg(mode, shards)
					r, lb := runSharded(t, cfg, 12, 6, 20, 0.15, seed)
					eng, singleBytes := replaySingle(cfg, 6, r)
					requireSameBytes(t, r, lb, eng, singleBytes)

					// Authoritative state and install point.
					if r.Installed() != eng.Installed() {
						t.Fatalf("installed %d vs %d", r.Installed(), eng.Installed())
					}
					if !r.Authoritative().Equal(eng.Authoritative()) {
						t.Fatal("authoritative state ζS diverged")
					}
					sm, rm := eng.Metrics(), r.Metrics()
					if sm.TotalSubmitted != rm.TotalSubmitted || sm.TotalDropped != rm.TotalDropped {
						t.Fatalf("protocol totals diverged: single %d/%d sharded %d/%d",
							sm.TotalSubmitted, sm.TotalDropped, rm.TotalSubmitted, rm.TotalDropped)
					}
				})
			}
		}
	}
}

// TestShardedEquivalenceWithDrops exercises the Algorithm 7 drop path
// through the sharded stamp phase: a tight threshold must drop exactly
// the same submissions in both engines. The second configuration
// combines what no other differential does — drops, sessions and
// partitioned epochs: after the workload every client resumes on the
// router and on the single-lane replay, and the verdicts, whose
// DroppedActs replay each session's drop ring, must agree byte for byte.
// (A drop recorded by the lane stamp and again by its seal shows up
// there as a ring twice as long as the single lane's.)
func TestShardedEquivalenceWithDrops(t *testing.T) {
	for _, tc := range []struct {
		shards, resumeWindow int
		crossFrac            float64
	}{
		{shards: 4, crossFrac: 0.35},
		{shards: 2, crossFrac: 0.02, resumeWindow: 64},
	} {
		t.Run(fmt.Sprintf("shards=%d/cross=%v/window=%d", tc.shards, tc.crossFrac, tc.resumeWindow), func(t *testing.T) {
			cfg := shardedCfg(core.ModeInfoBound, tc.shards)
			cfg.Threshold = 40 // groups are 300 apart: cross-group chains break
			cfg.ResumeWindow = tc.resumeWindow
			r, lb := runSharded(t, cfg, 12, 6, 20, tc.crossFrac, 7)
			eng, singleBytes := replaySingle(cfg, 6, r)
			requireSameBytes(t, r, lb, eng, singleBytes)

			if r.Metrics().TotalDropped == 0 {
				t.Fatal("drop workload produced no drops; threshold not exercised")
			}
			if r.Metrics().TotalDropped != eng.Metrics().TotalDropped {
				t.Fatalf("drops diverged: sharded %d single %d",
					r.Metrics().TotalDropped, eng.Metrics().TotalDropped)
			}
			if r.RouterMetrics().PartitionedEpochs == 0 {
				t.Fatal("no epoch stamped on the lane views")
			}
			if tc.resumeWindow == 0 {
				return
			}
			for _, cid := range lb.order {
				m := &wire.Resume{Token: r.SessionToken(cid), LastBatchSeq: lb.clients[cid].LastAppliedBatch()}
				_, got := r.HandleResume(m, lb.nowMs)
				_, want := eng.HandleResume(m, lb.nowMs)
				if g, w := replyBytes(got), replyBytes(want); string(g) != string(w) {
					t.Fatalf("client %d resume diverged: router %d bytes (%d dropped acts), single lane %d (%d)",
						cid, len(g), droppedActs(got), len(w), droppedActs(want))
				}
			}
		})
	}
}

func replyBytes(out core.ServerOutput) []byte {
	var buf []byte
	for _, rep := range out.Replies {
		buf = wire.AppendFrame(buf, rep.Msg)
	}
	return buf
}

// droppedActs totals the drop-ring entries an output's CatchUps replay.
func droppedActs(out core.ServerOutput) int {
	n := 0
	for _, rep := range out.Replies {
		if cu, ok := rep.Msg.(*wire.CatchUp); ok {
			n += len(cu.DroppedActs)
		}
	}
	return n
}

// TestShardedDeterminism pins the reproducible-merge claim: the same
// workload and delivery schedule must produce identical bytes whatever
// GOMAXPROCS is — the lane workers' scheduling must never show through.
func TestShardedDeterminism(t *testing.T) {
	digest := func() [32]byte {
		cfg := shardedCfg(core.ModeInfoBound, 4)
		r, lb := runSharded(t, cfg, 12, 6, 20, 0.15, 42)
		h := sha256.New()
		h.Write(historyBytes(t, r))
		for _, cid := range lb.order {
			h.Write(lb.bytes[cid])
		}
		var d [32]byte
		copy(d[:], h.Sum(nil))
		return d
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	want := digest()
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		if got := digest(); got != want {
			t.Fatalf("GOMAXPROCS=%d changed the output bytes", procs)
		}
	}
}

// TestShardedOracle checks Theorem 1 end to end on the sharded engine:
// serially replaying the merged history from the initial state must
// land exactly on ζS.
func TestShardedOracle(t *testing.T) {
	cfg := shardedCfg(core.ModeInfoBound, 4)
	r, _ := runSharded(t, cfg, 12, 6, 20, 0.15, 9)
	hist := r.History()
	if r.Installed() != uint64(len(hist)) {
		t.Fatalf("installed %d of %d actions after drain", r.Installed(), len(hist))
	}
	if !r.Authoritative().Equal(oracletest.Replay(genWorld(6), hist).Final()) {
		t.Fatal("authoritative state ζS diverged from serial oracle")
	}
}

// TestRouterStats sanity-checks the router's own accounting: lanes get
// used, epochs flush for the advertised reasons, cross-shard actions
// ride the global lane, and planning actually fans out.
func TestRouterStats(t *testing.T) {
	cfg := shardedCfg(core.ModeIncomplete, 4)
	r, _ := runSharded(t, cfg, 12, 6, 30, 0.2, 11)
	st := r.RouterMetrics()
	if st.Shards != 4 || len(st.PerLane) != 4 {
		t.Fatalf("stats report %d shards / %d lanes", st.Shards, len(st.PerLane))
	}
	if st.Epochs == 0 || st.LocalActions == 0 {
		t.Fatalf("no routed work recorded: %+v", st)
	}
	if st.CrossShardActions == 0 {
		t.Fatal("workload with 20% cross actions routed none to the global lane")
	}
	if st.ParallelPlans == 0 {
		t.Fatal("no epoch planned on the lane workers")
	}
	if st.PartitionedEpochs == 0 {
		t.Fatal("no epoch ran the partitioned per-lane pipeline")
	}
	if st.SpanningActions == 0 {
		t.Fatal("workload with 20% cross actions recorded no spanning footprints")
	}
	if st.FallbackEpochs == 0 {
		t.Fatal("live spanning bridges never forced a fallback epoch")
	}
	if st.PartitionedEpochs+st.FallbackEpochs != st.Epochs {
		t.Fatalf("epoch split %d+%d != %d", st.PartitionedEpochs, st.FallbackEpochs, st.Epochs)
	}
	if st.LaneImbalance < 1 {
		t.Fatalf("lane imbalance %.2f below the balanced floor of 1", st.LaneImbalance)
	}
	lanes := 0
	owned := 0
	for _, ls := range st.PerLane {
		if ls.Actions > 0 {
			lanes++
		}
		owned += ls.OwnedObjects
	}
	if lanes < 2 {
		t.Fatalf("partition collapsed onto %d lane(s)", lanes)
	}
	if owned == 0 {
		t.Fatal("ownership table assigned no objects")
	}
	if st.Table() == nil || st.String() == "" {
		t.Fatal("stats table rendering failed")
	}
}

// TestFlushForgetsRefusedLanes: an epoch in which every job of one lane
// is refused at the stamp (here: over the write-set cap) while a later
// lane's are accepted must leave no pending behind in the refused lane's
// stamp list — the lane's next epoch would stamp it a second time, into
// the lane segment alone.
func TestFlushForgetsRefusedLanes(t *testing.T) {
	cfg := shardedCfg(core.ModeIncomplete, 2)
	cfg.MaxWriteSet = 1
	const nGroups = 6
	init := genWorld(nGroups)
	r := New(cfg, init)
	t.Cleanup(r.Close)
	lb := newLoopback(t, r, cfg, init, nGroups)
	epoch := func(writes map[action.ClientID]int) {
		for _, cid := range lb.order {
			n, ok := writes[cid]
			if !ok {
				continue
			}
			g := int(cid) % nGroups
			a := &testAction{
				rs: world.IDSet{groupObject(g, 0), groupObject(g, 1)}, ws: world.IDSet{groupObject(g, 0)},
				pos: groupCenter(g), radius: 5, hasPos: true,
			}
			if n > 1 {
				a.ws = a.rs
			}
			lb.script[cid] = append(lb.script[cid], a)
			lb.submitNext(cid)
		}
		for lb.stepServer() {
		}
	}

	// Epoch 1: everyone stamps, so both lanes are accepted.
	all := make(map[action.ClientID]int)
	for _, cid := range lb.order {
		all[cid] = 1
	}
	epoch(all)
	var on [2]action.ClientID // one client routed to each lane
	for cid, lane := range r.laneOf {
		on[lane] = cid
	}
	if on[0] == 0 || on[1] == 0 {
		t.Fatalf("routing left a lane empty: %v", r.laneOf)
	}
	lb.flush()

	// Epoch 2: lane 0's only job is refused, lane 1's is accepted.
	epoch(map[action.ClientID]int{on[0]: 2, on[1]: 1})
	lb.flush()
	if got := r.Metrics().WriteSetViolations; got != 1 {
		t.Fatalf("WriteSetViolations = %d, want 1", got)
	}
	for lane, ps := range r.lanePs {
		if len(ps) != 0 {
			t.Fatalf("lane %d keeps %d pendings after its epoch flushed", lane, len(ps))
		}
	}
}

// TestOwnershipLeastLoaded pins the first-sight dealing policy: cells
// are dealt to the least-loaded lane, so any k distinct cells spread
// within one cell of perfectly even — the property that keeps the
// slowest lane (which bounds every parallel epoch phase) from owning a
// hashing accident. Repeating the lookups must not re-deal.
func TestOwnershipLeastLoaded(t *testing.T) {
	own := newOwnership(10, 4)
	var first []int
	for i := 0; i < 10; i++ {
		first = append(first, own.cellLane(geom.Vec{X: float64(i) * 10, Y: 0}))
	}
	counts := make([]int, 4)
	for _, lane := range first {
		counts[lane]++
	}
	if slices.Max(counts)-slices.Min(counts) > 1 {
		t.Fatalf("least-loaded dealing left lanes uneven: %v", counts)
	}
	for i := 0; i < 10; i++ {
		if own.cellLane(geom.Vec{X: float64(i)*10 + 5, Y: 5}) != first[i] {
			t.Fatalf("cell %d re-dealt on repeat lookup", i)
		}
	}
	if !slices.Equal(own.dealt, counts) {
		t.Fatalf("dealt %v, lanes handed out %v", own.dealt, counts)
	}
}

// TestHostileCentresRouteByID: an influence centre is client-declared,
// so a 4-lane router must place objects first seen under a NaN, ±Inf or
// ±1e300 centre by the id hash, mix64(id) % 4 — the path non-spatial
// actions take — and deal no cell for them. (A float-to-int32 conversion
// of such a centre is implementation-dependent in Go, which would make
// the lane a property of the platform, not of the submission stream.)
// The ids are chosen so their hash lanes cover all four lanes, so no one
// cell's lane can match them all.
func TestHostileCentresRouteByID(t *testing.T) {
	const lanes = 4
	nan, inf := math.NaN(), math.Inf(1)
	centres := []geom.Vec{
		{X: nan, Y: 0}, {X: 0, Y: nan}, {X: inf, Y: inf}, {X: -inf, Y: 5},
		{X: 1e300, Y: 0}, {X: -1e300, Y: -1e300}, {X: 5, Y: 1e300}, {X: nan, Y: -inf},
	}
	var ids []world.ObjectID
	covered := make(map[uint64]bool)
	for id := world.ObjectID(1); len(ids) < len(centres); id++ {
		if h := mix64(uint64(id)) % lanes; !covered[h] || len(covered) == lanes {
			covered[h] = true
			ids = append(ids, id)
		}
	}
	init := world.NewState()
	for _, id := range ids {
		init.Set(id, world.Value{float64(id)})
	}
	cfg := shardedCfg(core.ModeIncomplete, lanes)
	r := New(cfg, init)
	t.Cleanup(r.Close)
	lb := newLoopback(t, r, cfg, init, 1)
	for i, id := range ids {
		lb.script[1] = append(lb.script[1], &testAction{
			rs: world.IDSet{id}, ws: world.IDSet{id}, pos: centres[i], radius: 5, hasPos: true,
		})
	}
	lb.drive(rand.New(rand.NewSource(1)), false)
	lb.requireNoViolations()
	if n := r.inner.InternedObjects(); n != len(ids) {
		t.Fatalf("%d objects interned, want %d", n, len(ids))
	}
	for o := range uint32(len(ids)) {
		id := r.inner.ObjectIDOf(o)
		if got, want := r.own.byDense[o], int32(mix64(uint64(id))%lanes); got != want {
			t.Errorf("object %d (centre %v): lane %d, want the id hash's %d", id, centres[slices.Index(ids, id)], got, want)
		}
	}
	if len(r.own.cells) != 0 || slices.Max(r.own.dealt) != 0 {
		t.Fatalf("hostile centres dealt cells: %d cells, per lane %v", len(r.own.cells), r.own.dealt)
	}
}

// TestNewEngineFallbacks pins the factory: single lane for Shards ≤ 1
// and ModeBasic; router otherwise.
func TestNewEngineFallbacks(t *testing.T) {
	init := genWorld(2)
	cfg := shardedCfg(core.ModeInfoBound, 4)
	if _, ok := NewEngine(cfg, init).(*Router); !ok {
		t.Fatal("Shards=4 did not build a router")
	}
	cfg.Shards = 1
	if _, ok := NewEngine(cfg, init).(*Router); ok {
		t.Fatal("Shards=1 built a router")
	}
	cfg.Shards = 4
	cfg.Mode = core.ModeBasic
	cfg.Threshold = 0
	if _, ok := NewEngine(cfg, init).(*Router); ok {
		t.Fatal("ModeBasic built a router")
	}
}

var _ = sort.Ints // reserved for debug helpers
