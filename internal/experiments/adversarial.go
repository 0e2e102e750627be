package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/metrics"
	"seve/internal/transport"
	"seve/internal/wire"
	"seve/internal/world"
)

// Adversarial measures the superseding delivery queue (DESIGN.md §13)
// on the workloads it was built for: clients whose downlink stalls
// while the world keeps changing under them. Each scenario runs twice
// over the identical action schedule — once with the pre-PR drop-at-cap
// queue ("off") and once with in-place supersession ("on") — and the
// table reports what each delivery discipline actually shipped: bytes,
// frames, drops, in-queue merges, snapshot fallbacks, and the stale
// footprint high-water mark. The server side is byte-identical between
// the two runs (the control loop synthesizes completions from the
// engine's replies before they enter a queue), so every difference in a
// row pair is attributable to the queue alone.
//
// Scenarios:
//
//   - uniform: the keep-up control. Clients trade inside well-separated
//     clusters and every queue drains every round; both disciplines must
//     deliver identical bytes with zero supersessions (the experiment-
//     scale restatement of TestSupersedingEquivalence).
//   - flash: a flash crowd. Every client acts from the same spot, so
//     each push fans out to the whole population; stalled queues fill
//     with wide push batches.
//   - auction: a trading storm. All clients hammer one tiny hot-object
//     set, so every reply's closure spans the whole in-flight window —
//     maximal per-frame weight at modest fan-out.
//   - churn: interest churn. Footprints and positions rotate between
//     banks every few rounds, so a stalled queue accumulates frames
//     whose covered objects are mostly disjoint — the worst case for
//     in-place replacement, where only the snapshot fallback wins.
func Adversarial(opt Options) (*metrics.Table, error) {
	p := advParams{
		clusters:    pick(opt, 6, 4),
		perCluster:  pick(opt, 4, 3),
		rounds:      pick(opt, 48, 20),
		stallFrom:   pick(opt, 4, 2),
		stallTo:     pick(opt, 46, 18),
		queueCap:    pick(opt, 48, 16),
		lag:         2,
		stallEvery:  4,
		hotObjects:  3,
		banks:       4,
		bankObjects: 4,
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("Superseding delivery queue under adversarial stalls: %d clients, %d rounds, stall rounds [%d,%d), queue cap %d",
			p.clients(), p.rounds, p.stallFrom, p.stallTo, p.queueCap),
		Header: []string{"workload", "superseding", "delivered_kb", "stalled_kb", "frames", "avg_envs",
			"enqueued", "drops", "drop_pct", "superseded", "coalesced", "snapshots", "max_stale", "bytes_x"},
	}
	for _, sc := range advScenarios(p) {
		off, err := runAdversarial(sc, p, false)
		if err != nil {
			return nil, fmt.Errorf("adversarial %s off: %w", sc.name, err)
		}
		on, err := runAdversarial(sc, p, true)
		if err != nil {
			return nil, fmt.Errorf("adversarial %s on: %w", sc.name, err)
		}
		for _, r := range []struct {
			mode string
			res  advResult
		}{{"off", off}, {"on", on}} {
			// bytes_x compares delivery to the stalled cohort, where the
			// disciplines diverge; without stalls it compares the totals
			// (and must come out 1.00 — the equivalence control).
			num, den := off.bytes, r.res.bytes
			if sc.stalls {
				num, den = off.stalledBytes, r.res.stalledBytes
			}
			x := 1.0
			if den > 0 {
				x = float64(num) / float64(den)
			}
			avgEnvs := 0.0
			if r.res.batches > 0 {
				avgEnvs = float64(r.res.envs) / float64(r.res.batches)
			}
			dropPct := 0.0
			if r.res.enqueued > 0 {
				dropPct = 100 * float64(r.res.drops) / float64(r.res.enqueued)
			}
			t.AddRow(sc.name, r.mode,
				fmt.Sprintf("%.1f", float64(r.res.bytes)/1024),
				fmt.Sprintf("%.1f", float64(r.res.stalledBytes)/1024),
				fmt.Sprintf("%d", r.res.frames),
				fmt.Sprintf("%.1f", avgEnvs),
				fmt.Sprintf("%d", r.res.enqueued),
				fmt.Sprintf("%d", r.res.drops),
				fmt.Sprintf("%.2f", dropPct),
				fmt.Sprintf("%d", r.res.superseded),
				fmt.Sprintf("%d", r.res.coalesced),
				fmt.Sprintf("%d", r.res.snapshots),
				fmt.Sprintf("%d", r.res.maxStale),
				fmt.Sprintf("%.2f", x))
		}
		opt.log("adversarial %s: off %.1fKB/%d drops, on %.1fKB/%d snapshots (%.2fx bytes)",
			sc.name, float64(off.bytes)/1024, off.drops,
			float64(on.bytes)/1024, on.snapshots,
			float64(off.bytes)/math.Max(float64(on.bytes), 1))
	}
	return t, nil
}

// advParams fixes the stall profile and population shared by every
// scenario, so the off/on row pairs and the cross-scenario columns are
// comparable.
type advParams struct {
	clusters, perCluster int
	rounds               int
	stallFrom, stallTo   int // stalled queues are not drained in [from, to)
	queueCap             int
	lag                  int // rounds a completion stays in flight
	stallEvery           int // every Nth client is stalled
	hotObjects           int // auction hot-set size
	banks, bankObjects   int // churn rotation banks
}

func (p advParams) clients() int { return p.clusters * p.perCluster }

func (p advParams) isStalled(c int) bool { return c%p.stallEvery == 0 }

func (p advParams) inStall(round int) bool { return round >= p.stallFrom && round < p.stallTo }

// Object-id banks. Disjoint ranges keep footprints readable in traces.
func advOwn(c int) world.ObjectID       { return world.ObjectID(1000 + c) }
func advHub(cluster int) world.ObjectID { return world.ObjectID(1 + cluster) }
func advHot(i int) world.ObjectID       { return world.ObjectID(500 + i) }
func advBank(p advParams, b, i int) world.ObjectID {
	return world.ObjectID(2000 + b*p.bankObjects + i)
}

// advSite is cluster's home position: sites sit far enough apart that
// Equation (1) (2s(1+ω)RTT + rC + rA ≈ 24 units at the default speed)
// never pushes across clusters.
func advSite(cluster int) geom.Vec {
	return geom.Vec{X: float64(cluster)*300 + 50, Y: float64(cluster)*300 + 50}
}

type advScenario struct {
	name   string
	stalls bool
	// stalledSubmitEvery thins a stalled client's uplink to one
	// submission round per N. The trading storm keeps it dense: a
	// stalled trader still floods bids, and its undeliverable closure
	// replies are exactly what overflows the queue.
	stalledSubmitEvery int
	// submitsPerRound is each client's actions per submission round
	// (the storm submits in bursts; everyone else paces at one).
	submitsPerRound int
	footprint       func(c, round int) []world.ObjectID
	position        func(c, round int) geom.Vec
}

func advScenarios(p advParams) []advScenario {
	clusterOf := func(c int) int { return (c - 1) / p.perCluster }
	local := func(c, _ int) []world.ObjectID {
		return []world.ObjectID{advHub(clusterOf(c)), advOwn(c)}
	}
	home := func(c, _ int) geom.Vec { return advSite(clusterOf(c)) }
	return []advScenario{
		{name: "uniform", stalls: false, stalledSubmitEvery: 3, submitsPerRound: 1,
			footprint: local, position: home},
		{name: "flash", stalls: true, stalledSubmitEvery: 3, submitsPerRound: 1, footprint: local,
			position: func(_, _ int) geom.Vec { return advSite(0) }},
		{name: "auction", stalls: true, stalledSubmitEvery: 2, submitsPerRound: 2,
			footprint: func(c, _ int) []world.ObjectID {
				objs := make([]world.ObjectID, 0, p.hotObjects+1)
				for i := 0; i < p.hotObjects; i++ {
					objs = append(objs, advHot(i))
				}
				return append(objs, advOwn(c))
			},
			position: home},
		{name: "churn", stalls: true, stalledSubmitEvery: 3, submitsPerRound: 1,
			footprint: func(c, round int) []world.ObjectID {
				b := (round/p.stallEvery + c) % p.banks
				objs := []world.ObjectID{advOwn(c)}
				for i := 0; i < p.bankObjects; i++ {
					objs = append(objs, advBank(p, b, i))
				}
				slices.Sort(objs)
				return objs
			},
			position: func(c, round int) geom.Vec {
				return advSite((clusterOf(c) + round/p.stallEvery) % p.clusters)
			}},
	}
}

type advResult struct {
	bytes int
	// stalledBytes is the slice of bytes delivered to the stalled cohort
	// — where the two delivery disciplines actually diverge. The keep-up
	// majority's traffic is identical by construction and would bury the
	// effect in the total.
	stalledBytes          int
	frames                int
	batches               int
	envs                  int
	enqueued              int
	drops                 int
	superseded, coalesced int
	snapshots             int
	maxStale              int
}

// advRig is the headless delivery path: the transport's Hub — the real
// engine replies, the real encode boundary, and the real SendQueue
// escalation ladder: enqueue, tail-coalesce, snapshot fallback — with
// the harness standing in for the writer pumps.
type advRig struct {
	hub *transport.Hub
	// stalled marks the cohort whose drains are withheld during the
	// stall window; their delivered bytes are accounted separately.
	stalled map[action.ClientID]bool
	nowMs   float64
	res     advResult
}

// drain empties one client's queue through the wire boundary, counting
// what a connected client would have received.
func (r *advRig) drain(cid action.ClientID) error {
	q := r.hub.Queue(cid)
	for {
		frames := q.PopAll(nil, 1<<30)
		if len(frames) == 0 {
			return nil
		}
		for _, f := range frames {
			r.res.bytes += f.Len()
			if r.stalled[cid] {
				r.res.stalledBytes += f.Len()
			}
			r.res.frames++
			msg, err := wire.ReadFrame(bytes.NewReader(f.Bytes()))
			f.Release()
			if err != nil {
				return fmt.Errorf("client %d: decode delivered frame: %w", cid, err)
			}
			if b, ok := msg.(*wire.Batch); ok {
				r.res.batches++
				r.res.envs += len(b.Envs)
			}
		}
	}
}

// runAdversarial drives one scenario through the delivery rig. The
// control loop is delivery-independent: completions are synthesized
// from the engine's closure replies (evaluated against a shared mirror
// state) the moment they are produced, so install progress — and with
// it every reply the server generates — is identical whether the
// queues supersede, drop, or stall.
func runAdversarial(sc advScenario, p advParams, sup bool) (advResult, error) {
	registerTradeWire()
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeFirstBound
	cfg.ResumeWindow = 8

	init := world.NewState()
	for c := 1; c <= p.clients(); c++ {
		init.Set(advOwn(c), world.Value{0})
	}
	for cl := 0; cl < p.clusters; cl++ {
		init.Set(advHub(cl), world.Value{0})
	}
	for i := 0; i < p.hotObjects; i++ {
		init.Set(advHot(i), world.Value{0})
	}
	for b := 0; b < p.banks; b++ {
		for i := 0; i < p.bankObjects; i++ {
			init.Set(advBank(p, b, i), world.Value{0})
		}
	}

	hub := transport.NewHub(transport.ServerConfig{Core: cfg, Init: init}, new(sync.Mutex))
	rig := &advRig{hub: hub, stalled: map[action.ClientID]bool{}}
	for c := 1; c <= p.clients(); c++ {
		cid, _ := hub.Join(0, hub.NewQueue(p.queueCap, sup))
		if sc.stalls && p.isStalled(c) {
			rig.stalled[cid] = true
		}
	}

	mirror := init.Clone()
	nextSeq := make([]uint32, p.clients()+1)
	pending := make([][]*wire.Completion, p.lag)
	stallActive := func(c, round int) bool {
		return sc.stalls && p.isStalled(c) && p.inStall(round)
	}

	step := func(round int) error {
		rig.nowMs += 300
		due := pending[0]
		copy(pending, pending[1:])
		pending[p.lag-1] = nil
		for _, comp := range due {
			hub.Handle(comp.By, comp, rig.nowMs)
		}

		for c := 1; c <= p.clients(); c++ {
			// A stalled client's uplink stays alive (thinned per the
			// scenario): its submissions produce the non-coalescible
			// closure replies that force the snapshot escalation.
			if stallActive(c, round) && round%sc.stalledSubmitEvery != 0 {
				continue
			}
			cid := action.ClientID(c)
			for burst := 0; burst < sc.submitsPerRound; burst++ {
				nextSeq[c]++
				a := &tradeAction{
					id:   action.ID{Client: cid, Seq: nextSeq[c]},
					objs: sc.footprint(c, round),
					pos:  sc.position(c, round),
				}
				// The mirror run doubles as the strict-mode gate on
				// tradeAction: no core.Client ever evaluates it here.
				tx := world.NewTx(world.StateView{S: mirror})
				res := action.EvalTx(a, tx)
				if err := action.CheckAccess(a, tx); err != nil {
					return err
				}
				for _, wr := range res.Writes {
					mirror.Set(wr.ID, wr.Val)
				}
				out := hub.Handle(cid, &wire.Submit{Env: action.Envelope{Origin: cid, Act: a}}, rig.nowMs)
				seq, found := uint64(0), false
				for _, rep := range out.Replies {
					batch, ok := rep.Msg.(*wire.Batch)
					if !ok || rep.To != cid {
						continue
					}
					for _, env := range batch.Envs {
						if env.Origin == cid && env.Act.ID() == a.id {
							seq, found = env.Seq, true
						}
					}
				}
				if !found {
					return fmt.Errorf("client %d round %d: submission produced no closure reply", c, round)
				}
				pending[p.lag-1] = append(pending[p.lag-1], &wire.Completion{Seq: seq, By: cid, Res: res})
			}
		}

		hub.Tick(rig.nowMs)

		for c := 1; c <= p.clients(); c++ {
			if stallActive(c, round) {
				continue
			}
			if err := rig.drain(action.ClientID(c)); err != nil {
				return err
			}
		}
		return nil
	}

	for round := 0; round < p.rounds; round++ {
		if err := step(round); err != nil {
			return advResult{}, err
		}
	}
	// Settle: flush the completion pipeline and let every stalled queue
	// drain — the post-stall catch-up traffic is part of the bill.
	for round := p.rounds; round < p.rounds+p.lag+1; round++ {
		if err := step(round); err != nil {
			return advResult{}, err
		}
	}
	for c := 1; c <= p.clients(); c++ {
		if err := rig.drain(action.ClientID(c)); err != nil {
			return advResult{}, err
		}
		hub.Queue(action.ClientID(c)).Close()
	}

	st := hub.Metrics()
	rig.res.drops, rig.res.superseded, rig.res.coalesced, rig.res.maxStale =
		st.WriteQueueDrops, st.FramesSuperseded, st.FramesCoalesced, st.MaxStaleObjects
	rig.res.enqueued, rig.res.snapshots = hub.Counts()
	if st.SnapshotFallbacks != rig.res.snapshots {
		return advResult{}, fmt.Errorf("engine counted %d snapshot fallbacks, hub issued %d", st.SnapshotFallbacks, rig.res.snapshots)
	}
	return rig.res, nil
}

// tradeAction is the adversarial workload unit: read a declared object
// set, bump every member. Footprint and position are free parameters,
// which is all the scenarios need — conflict density comes from
// overlapping object sets, fan-out from position proximity.
type tradeAction struct {
	id   action.ID
	objs []world.ObjectID
	pos  geom.Vec
}

const kindTrade action.Kind = 1600

const tradeRadius = 5.0

func (a *tradeAction) ID() action.ID         { return a.id }
func (a *tradeAction) Kind() action.Kind     { return kindTrade }
func (a *tradeAction) ReadSet() world.IDSet  { return world.IDSet(a.objs) }
func (a *tradeAction) WriteSet() world.IDSet { return world.IDSet(a.objs) }
func (a *tradeAction) Influence() geom.Circle {
	return geom.Circle{Center: a.pos, R: tradeRadius}
}

func (a *tradeAction) Apply(tx *world.Tx) bool {
	for _, o := range a.objs {
		v, ok := tx.Read(o)
		if !ok {
			return false
		}
		tx.Write(o, world.Value{v[0] + 1})
	}
	return true
}

func (a *tradeAction) MarshalBody() []byte {
	buf := make([]byte, 0, 18+8*len(a.objs))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.pos.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.pos.Y))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a.objs)))
	for _, o := range a.objs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o))
	}
	return buf
}

func unmarshalTrade(id action.ID, body []byte, slab *world.Slab) (action.Action, error) {
	if len(body) < 18 {
		return nil, fmt.Errorf("experiments: trade body too short: %d bytes", len(body))
	}
	a := &tradeAction{id: id}
	a.pos.X = math.Float64frombits(binary.LittleEndian.Uint64(body[0:8]))
	a.pos.Y = math.Float64frombits(binary.LittleEndian.Uint64(body[8:16]))
	n := int(binary.LittleEndian.Uint16(body[16:18]))
	if len(body) != 18+8*n {
		return nil, fmt.Errorf("experiments: trade body length %d, want %d objects", len(body), n)
	}
	a.objs = slab.IDs(n)
	for i := 0; i < n; i++ {
		a.objs[i] = world.ObjectID(binary.LittleEndian.Uint64(body[18+8*i:]))
	}
	return a, nil
}

// tradeWireOnce guards the process-global action registry: every
// scenario (and every test that drives one) shares the one decoder.
var tradeWireOnce sync.Once

func registerTradeWire() {
	tradeWireOnce.Do(func() {
		wire.RegisterKind(kindTrade, unmarshalTrade)
	})
}
