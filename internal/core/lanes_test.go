package core

import (
	"fmt"
	"sync"
	"testing"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// This file tests the pipeline SPI (pipeline.go) the shard router
// drives: a miniature two-lane pipeline runs Lane.Stamp/SealStamp/
// Lane.Plan/PreCommit/Lane.Commit/SealCommit — over lane handles with the
// starred phases on one goroutine per lane, so `go test -race` patrols
// the lane-affinity claims, and for fallback epochs one job at a time
// through SubmitPrepared — and every byte is compared against a
// sequential server fed the same effective order.
// The full router pipeline is exercised end to end in internal/shard;
// these tests pin the core-side contract in isolation.

// pipeSub is one scripted submission with its routing decision.
type pipeSub struct {
	from action.ClientID
	msg  *wire.Submit
	lane int
}

// pipeSide is one engine under comparison plus its client fleet and the
// byte streams they observed.
type pipeSide struct {
	srv *Server
	// lanes are the partitioned side's lane handles.
	lanes   []*Lane
	clients map[action.ClientID]*Client
	bytes   map[action.ClientID][]byte
	// comps buffers client→server traffic (completions) for delivery at
	// the head of the next epoch, matching the router's install pass.
	comps []fromMsg
}

func newPipeSide(cfg Config, init *world.State, nClients int) *pipeSide {
	ps := &pipeSide{
		srv:     NewServer(cfg, init),
		clients: make(map[action.ClientID]*Client),
		bytes:   make(map[action.ClientID][]byte),
	}
	for i := 1; i <= nClients; i++ {
		id := action.ClientID(i)
		ps.clients[id] = NewClient(id, cfg, init)
		ps.srv.RegisterClient(id, 0)
	}
	return ps
}

// absorb records and delivers replies in emission order, buffering the
// resulting completions for the next epoch.
func (ps *pipeSide) absorb(out ServerOutput) {
	for _, r := range out.Replies {
		ps.bytes[r.To] = wire.AppendFrame(ps.bytes[r.To], r.Msg)
		cout := ps.clients[r.To].HandleMsg(r.Msg)
		for _, m := range cout.ToServer {
			ps.comps = append(ps.comps, fromMsg{from: r.To, msg: m})
		}
	}
}

// submit builds a submission through the side's client engine (so both
// sides mint identical action ids and payload bytes).
func (ps *pipeSide) submit(from action.ClientID, a *testAction, lane int) pipeSub {
	c := ps.clients[from]
	a.id = c.NextActionID()
	msg, _ := c.Submit(a)
	return pipeSub{from: from, msg: msg, lane: lane}
}

// installBuffered is the epoch head: buffered completions apply, then
// the contiguous prefix installs.
func (ps *pipeSide) installBuffered(t *testing.T) {
	t.Helper()
	for _, fm := range ps.comps {
		m, ok := fm.msg.(*wire.Completion)
		if !ok {
			t.Fatalf("client sent %T mid-epoch; pipeline test expects completions only", fm.msg)
		}
		ps.srv.TakeCompletion(fm.from, m)
	}
	ps.comps = ps.comps[:0]
	ps.srv.InstallContiguous()
}

// laneEpoch runs one partitioned epoch over subs (already in merge
// order: lane-major, arrival order within a lane), with the stamp,
// plan, and commit phases running one goroutine per active lane.
func (ps *pipeSide) laneEpoch(t *testing.T, nLanes int, subs []pipeSub) ServerOutput {
	t.Helper()
	ps.installBuffered(t)

	var out ServerOutput
	pend := make([]*Pending, len(subs))
	perLane := make([][]*Pending, nLanes)
	for i, sub := range subs {
		p := ps.srv.PrepareSubmit(sub.from, sub.msg, 0)
		p.SetLane(sub.lane)
		pend[i] = p
		perLane[sub.lane] = append(perLane[sub.lane], p)
	}

	runLanes := func(fn func(lane int)) {
		var wg sync.WaitGroup
		for lane := 0; lane < nLanes; lane++ {
			if len(perLane[lane]) == 0 {
				continue
			}
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				fn(lane)
			}(lane)
		}
		wg.Wait()
	}

	runLanes(func(lane int) { ps.lanes[lane].Stamp(perLane[lane]) })

	plans := make([]ReplyPlan, len(pend))
	accepted := make([]bool, len(pend))
	for i, p := range pend {
		accepted[i] = ps.srv.SealStamp(p, &out)
	}
	runLanes(func(lane int) {
		for i, p := range pend {
			if accepted[i] && subs[i].lane == lane {
				plans[i] = ps.lanes[lane].Plan(p, nil)
			}
		}
	})
	for i, p := range pend {
		if accepted[i] {
			ps.srv.PreCommit(p, &plans[i])
		}
	}
	runLanes(func(lane int) {
		for i, p := range pend {
			if accepted[i] && subs[i].lane == lane {
				ps.lanes[lane].Commit(p, &plans[i])
			}
		}
	})
	for i, p := range pend {
		if accepted[i] {
			ps.srv.SealCommit(p, &plans[i], &out)
		}
	}
	return out
}

// globalEpoch runs one epoch the way the router runs a fallback epoch
// (and, with one job, its cross-shard entry): each job through
// SubmitPrepared in merge order, with its lane recorded so an accepted
// entry still mirrors into its segment at the seal.
func (ps *pipeSide) globalEpoch(t *testing.T, subs []pipeSub) ServerOutput {
	t.Helper()
	ps.installBuffered(t)
	var out ServerOutput
	for _, sub := range subs {
		p := ps.srv.PrepareSubmit(sub.from, sub.msg, 0)
		p.SetLane(sub.lane)
		ps.srv.SubmitPrepared(p, &out)
	}
	return out
}

// seqEpoch feeds the reference server the identical effective order:
// buffered completions, then the submissions through plain HandleMsg.
func (ps *pipeSide) seqEpoch(subs []pipeSub) ServerOutput {
	var out ServerOutput
	for _, fm := range ps.comps {
		mergeInto(&out, ps.srv.HandleMsg(fm.from, fm.msg, 0))
	}
	ps.comps = ps.comps[:0]
	for _, sub := range subs {
		mergeInto(&out, ps.srv.HandleMsg(sub.from, sub.msg, 0))
	}
	return out
}

func mergeInto(dst *ServerOutput, src ServerOutput) {
	dst.Replies = append(dst.Replies, src.Replies...)
	dst.QueueScanned += src.QueueScanned
	dst.Dropped = dst.Dropped || src.Dropped
}

// TestLanePipelineMatchesSequential drives the partitioned SPI and a
// plain sequential server through the same scripted effective order —
// conflicting neighbours, duplicates, Information Bound drops, a
// spanning cross-lane action, a fallback epoch, and a parallel push
// cycle — and requires byte-identical histories and reply streams.
func TestLanePipelineMatchesSequential(t *testing.T) {
	for _, mode := range []Mode{ModeIncomplete, ModeInfoBound} {
		t.Run(mode.String(), func(t *testing.T) {
			const nLanes = 2
			cfg := cfgFor(mode)
			cfg.Threshold = 30    // close neighbours pass, the far submission drops
			cfg.ResumeWindow = 32 // sessions on: the duplicate round needs dedup
			init := initWorld(8)

			par := newPipeSide(cfg, init, 5)
			par.srv.EnablePartition(nLanes)
			if !par.srv.Partitioned() {
				t.Fatal("EnablePartition did not partition")
			}
			for lane := 0; lane < nLanes; lane++ {
				par.lanes = append(par.lanes, par.srv.Lane(lane))
			}
			seq := newPipeSide(cfg, init, 5)
			par.srv.pushWidth, seq.srv.pushWidth = 2, 2

			// One round of the script on both sides. Lane 0 owns objects
			// 1–3 (clients 1 and 3), lane 1 owns 5–7 (clients 2 and 4);
			// client 5 is the cross-lane visitor.
			round := func(r int, build func(s *pipeSide) []pipeSub, global bool) {
				t.Helper()
				psubs, ssubs := build(par), build(seq)
				var pout ServerOutput
				if global {
					pout = par.globalEpoch(t, psubs)
				} else {
					pout = par.laneEpoch(t, nLanes, psubs)
				}
				par.absorb(pout)
				seq.absorb(seq.seqEpoch(ssubs))
				for cid, got := range par.bytes {
					if string(got) != string(seq.bytes[cid]) {
						t.Fatalf("round %d: client %d reply stream diverged (%d vs %d bytes)",
							r, cid, len(got), len(seq.bytes[cid]))
					}
				}
			}

			for r := 0; r < 12; r++ {
				r := r
				switch {
				case r == 4: // duplicate: the same submission twice in one epoch
					round(r, func(s *pipeSide) []pipeSub {
						b := s.submit(3, spatialAt(&testAction{
							rs: world.NewIDSet(2, 3), ws: world.NewIDSet(2), delta: 2,
						}, 5, 0, 1), 0)
						return []pipeSub{b, b}
					}, false)
				case r == 6: // far submission: dropped in ModeInfoBound
					round(r, func(s *pipeSide) []pipeSub {
						return []pipeSub{
							s.submit(1, spatialAt(&testAction{
								rs: world.NewIDSet(1, 2), ws: world.NewIDSet(1, 2), delta: 1,
							}, 0, 0, 1), 0),
							s.submit(3, spatialAt(&testAction{
								rs: world.NewIDSet(2, 3), ws: world.NewIDSet(3), delta: 2,
							}, 1000, 0, 1), 0),
						}
					}, false)
				case r == 8: // spanning action through the global path
					round(r, func(s *pipeSide) []pipeSub {
						return []pipeSub{s.submit(5, spatialAt(&testAction{
							rs: world.NewIDSet(3, 5), ws: world.NewIDSet(3, 5), delta: 9,
						}, 200, 200, 1), -1)}
					}, true)
				default: // regular four-client epoch; r==10 via the fallback path
					round(r, func(s *pipeSide) []pipeSub {
						aws := world.NewIDSet(1)
						if r%2 == 1 {
							aws = world.NewIDSet(1, 2)
						}
						return []pipeSub{
							s.submit(1, spatialAt(&testAction{
								rs: world.NewIDSet(1, 2), ws: aws, delta: float64(1 + r),
							}, float64(r), 0, 1), 0),
							s.submit(3, spatialAt(&testAction{
								rs: world.NewIDSet(2, 3), ws: world.NewIDSet(2), delta: float64(2 + r),
							}, 5, 0, 1), 0),
							s.submit(2, spatialAt(&testAction{
								rs: world.NewIDSet(5, 6), ws: world.NewIDSet(5, 6), delta: float64(3 + r),
							}, 500, 500, 1), 1),
							s.submit(4, spatialAt(&testAction{
								rs: world.NewIDSet(6, 7), ws: world.NewIDSet(7), delta: float64(4 + r),
							}, 505, 500, 1), 1),
						}
					}, r == 10)
				}
			}

			if mode >= ModeFirstBound {
				// Push cycle while the last epoch is still uncommitted: the
				// plan fan-out runs through the injected executor.
				par.absorb(par.srv.Tick(1000))
				seq.absorb(seq.srv.Tick(1000))
			}
			// Settle the tail completions on both sides.
			par.laneEpoch(t, nLanes, nil)
			seq.seqEpoch(nil)

			parHist := wire.AppendFrame(nil, &wire.Batch{Envs: par.srv.History()})
			seqHist := wire.AppendFrame(nil, &wire.Batch{Envs: seq.srv.History()})
			if string(parHist) != string(seqHist) {
				t.Fatalf("histories diverged: %d vs %d bytes", len(parHist), len(seqHist))
			}
			for cid, got := range par.bytes {
				if string(got) != string(seq.bytes[cid]) {
					t.Fatalf("client %d reply stream diverged", cid)
				}
			}
			if par.srv.Installed() != seq.srv.Installed() {
				t.Fatalf("installed %d vs %d", par.srv.Installed(), seq.srv.Installed())
			}
			if par.srv.Installed() == 0 {
				t.Fatal("nothing installed; the script exercised no completions")
			}
			if !par.srv.Authoritative().Equal(seq.srv.Authoritative()) {
				t.Fatal("authoritative states diverged")
			}
			if par.srv.stats.TotalSubmitted != seq.srv.stats.TotalSubmitted ||
				par.srv.stats.TotalDropped != seq.srv.stats.TotalDropped ||
				par.srv.stats.DuplicateSubmits != seq.srv.stats.DuplicateSubmits {
				t.Fatalf("counters diverged: submitted %d/%d dropped %d/%d dup %d/%d",
					par.srv.stats.TotalSubmitted, seq.srv.stats.TotalSubmitted,
					par.srv.stats.TotalDropped, seq.srv.stats.TotalDropped,
					par.srv.stats.DuplicateSubmits, seq.srv.stats.DuplicateSubmits)
			}
			if mode == ModeInfoBound && par.srv.stats.TotalDropped == 0 {
				t.Fatal("the far submission was not dropped")
			}
			if par.srv.stats.DuplicateSubmits == 0 {
				t.Fatal("the duplicate submission was not detected")
			}
			if got, want := par.srv.Metrics(), seq.srv.Metrics(); got.TotalSubmitted != want.TotalSubmitted {
				t.Fatalf("metrics submitted %d vs %d", got.TotalSubmitted, want.TotalSubmitted)
			}
		})
	}
}

// TestPendingAccessors pins the routing-facing accessors the shard
// router keys ownership by.
func TestPendingAccessors(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	init := initWorld(4)
	s := NewServer(cfg, init)
	c := NewClient(1, cfg, init)
	s.RegisterClient(1, 0)

	msg, _ := c.Submit(spatialAt(&testAction{
		rs: world.NewIDSet(2), ws: world.NewIDSet(1, 3), delta: 1,
	}, 7, 9, 2))
	p := s.PrepareSubmit(1, msg, 1)
	if p.From() != 1 {
		t.Fatalf("From() = %d", p.From())
	}
	rsd, wsd := p.Footprint()
	if len(rsd) != 1 || len(wsd) != 2 {
		t.Fatalf("footprint %d reads / %d writes", len(rsd), len(wsd))
	}
	if s.InternedObjects() < 3 {
		t.Fatalf("InternedObjects() = %d after interning 3 objects", s.InternedObjects())
	}
	if id := s.ObjectIDOf(rsd[0]); id != world.ObjectID(2) {
		t.Fatalf("ObjectIDOf(rsd[0]) = %d", id)
	}
	if pos, ok := p.Influence(); !ok || pos.X != 7 || pos.Y != 9 {
		t.Fatalf("Influence() = %v, %v", pos, ok)
	}
	var out ServerOutput
	if !s.SubmitPrepared(p, &out) {
		t.Fatal("stamp rejected a fresh submission")
	}
	if p.Seq() != 1 {
		t.Fatalf("Seq() = %d for the first stamp", p.Seq())
	}

	msg2, _ := c.Submit(&testAction{rs: world.NewIDSet(2), ws: world.NewIDSet(2), delta: 1})
	if _, ok := s.PrepareSubmit(1, msg2, 2).Influence(); ok {
		t.Fatal("non-spatial action reported an influence centre")
	}
}

// TestEnablePartitionGuards pins the constructor-time contract.
func TestEnablePartitionGuards(t *testing.T) {
	init := initWorld(2)

	s := NewServer(cfgFor(ModeIncomplete), init)
	s.EnablePartition(1)
	if s.Partitioned() {
		t.Fatal("a single lane is not a partition")
	}

	b := NewServer(cfgFor(ModeBasic), init)
	b.EnablePartition(2)
	if b.Partitioned() {
		t.Fatal("ModeBasic has no queue to partition")
	}

	busy := NewServer(cfgFor(ModeIncomplete), init)
	c := NewClient(1, cfgFor(ModeIncomplete), init)
	busy.RegisterClient(1, 0)
	msg, _ := c.Submit(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1})
	busy.HandleMsg(1, msg, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("EnablePartition on a non-empty queue did not panic")
		}
	}()
	busy.EnablePartition(2)
}

// TestLaneRefusesForeignPending stamps a submission on lane 0 and hands
// it to lane 1's handle, whose segment also holds an entry at the same
// position: Plan and Commit must panic rather than walk, or mark sent,
// lane 1's entry in its place.
func TestLaneRefusesForeignPending(t *testing.T) {
	cfg := cfgFor(ModeIncomplete)
	init := initWorld(4)
	s := NewServer(cfg, init)
	s.EnablePartition(2)
	lanes := []*Lane{s.Lane(0), s.Lane(1)}
	var out ServerOutput
	stamp := func(from action.ClientID, obj world.ObjectID, lane int) *Pending {
		c := NewClient(from, cfg, init)
		s.RegisterClient(from, 0)
		msg, _ := c.Submit(&testAction{rs: world.NewIDSet(obj), ws: world.NewIDSet(obj), delta: 1})
		p := s.PrepareSubmit(from, msg, 0)
		p.SetLane(lane)
		lanes[lane].Stamp([]*Pending{p})
		if !s.SealStamp(p, &out) {
			t.Fatalf("client %d: stamp refused", from)
		}
		return p
	}
	stamp(2, 3, 1)
	p := stamp(1, 1, 0)

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic on a pending stamped on lane 0", what)
			}
		}()
		f()
	}
	mustPanic("lane 1's Plan", func() { lanes[1].Plan(p, nil) })
	plan := lanes[0].Plan(p, nil)
	s.PreCommit(p, &plan)
	mustPanic("lane 1's Commit", func() { lanes[1].Commit(p, &plan) })
	mustPanic("the global handle's Commit", func() { s.global.Commit(p, &plan) })
	if s.lanes[1].queue[0].sent.has(p.rec.slot) {
		t.Fatal("a refused commit marked lane 1's entry sent")
	}
	lanes[0].Commit(p, &plan)
	s.SealCommit(p, &plan, &out)
	if !s.lanes[0].queue[0].sent.has(p.rec.slot) {
		t.Fatal("the owning handle's commit did not mark its entry sent")
	}
}

var _ = fmt.Sprintf
