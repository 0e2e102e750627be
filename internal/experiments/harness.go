package experiments

import (
	"fmt"

	"seve/internal/action"
	"seve/internal/baseline"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/netsim"
	"seve/internal/sim"
	"seve/internal/wire"
	"seve/internal/world"
)

// harness wires one architecture into the simulator: the server on node
// 0, client i on node i, each with a single-core processor. Engine state
// mutates at message arrival (arrival order equals service order under
// FIFO links and a FIFO processor); compute cost delays the *visible*
// effects — outgoing messages and commit timestamps — which is what the
// response-time metric observes.
type harness struct {
	rc   RunConfig
	w    *manhattan.World
	init *world.State
	k    *sim.Kernel
	net  *netsim.Network
	res  *Result

	submitAt map[action.ID]sim.Time

	serverProc  *sim.Proc
	clientProcs map[action.ClientID]*sim.Proc

	// Exactly one of these server/client sets is populated.
	seveSrv      *core.Server
	centralSrv   *baseline.CentralServer
	broadcastSrv *baseline.BroadcastServer
	ringSrv      *baseline.RingServer
	lockSrv      *baseline.LockServer
	ownSrv       *baseline.OwnershipServer
	zones        *baseline.ZoneGrid
	zoneProcs    []*sim.Proc

	coreClients    map[action.ClientID]*core.Client
	centralClients map[action.ClientID]*baseline.CentralClient
	lockClients    map[action.ClientID]*baseline.LockClient
	ownClients     map[action.ClientID]*baseline.OwnershipClient

	visSum     float64
	visSamples int

	horizon sim.Time
}

func (h *harness) nodeOf(cid action.ClientID) netsim.NodeID { return netsim.NodeID(cid) }

func (h *harness) recordCommits(commits []core.Commit) {
	for _, c := range commits {
		if at, ok := h.submitAt[c.ActID]; ok {
			h.res.Response.Add(float64(h.k.Now() - at))
			delete(h.submitAt, c.ActID)
		}
		h.res.Committed++
	}
}

func (h *harness) recordDrops(ids []action.ID) {
	for _, id := range ids {
		delete(h.submitAt, id)
		h.res.Dropped++
	}
}

func (h *harness) clientBatchCost(out core.ClientOutput) float64 {
	cost := 0.0
	for _, a := range out.Applied {
		cost += h.rc.Costs.actionCost(a)
	}
	return cost
}

// --- SEVE (and SEVE without dropping) ---

func (h *harness) buildSEVE() {
	cfg := h.rc.coreConfig()
	h.seveSrv = core.NewServer(cfg, h.init)
	h.serverProc = sim.NewProc(h.k, "server")
	h.coreClients = make(map[action.ClientID]*core.Client)
	h.clientProcs = make(map[action.ClientID]*sim.Proc)

	h.net.AddNode(netsim.ServerNode, func(from netsim.NodeID, msg netsim.Message) {
		out := h.seveSrv.HandleMsg(action.ClientID(from), msg.(wire.Msg), float64(h.k.Now()))
		h.res.QueueScans += out.QueueScanned
		cost := h.rc.Costs.ServerDispatchMs + float64(out.QueueScanned)*h.rc.Costs.ScanMs
		h.serverProc.Exec(sim.Time(cost), func() {
			for _, rep := range out.Replies {
				h.net.Send(netsim.ServerNode, h.nodeOf(rep.To), rep.Msg)
			}
		})
	})

	for i := 1; i <= h.rc.World.NumAvatars; i++ {
		cid := action.ClientID(i)
		h.seveSrv.RegisterClient(cid, 0)
		cl := core.NewClient(cid, cfg, h.init)
		h.coreClients[cid] = cl
		proc := sim.NewProc(h.k, fmt.Sprintf("client%d", i))
		h.clientProcs[cid] = proc
		node := h.nodeOf(cid)
		h.net.AddNode(node, func(from netsim.NodeID, msg netsim.Message) {
			out := cl.HandleMsg(msg.(wire.Msg))
			h.res.Violations = append(h.res.Violations, out.Violations...)
			proc.Exec(sim.Time(h.clientBatchCost(out)), func() {
				h.recordCommits(out.Commits)
				h.recordDrops(out.DroppedLocal)
				for _, m := range out.ToServer {
					h.net.Send(node, netsim.ServerNode, m)
				}
				for _, p := range out.ToPeers {
					h.net.Send(node, h.nodeOf(p.To), p.Msg)
				}
			})
		})
	}

	// First Bound push cycle.
	if cfg.Mode >= core.ModeFirstBound {
		interval := sim.Time(cfg.PushIntervalMs())
		var tick func()
		tick = func() {
			out := h.seveSrv.Tick(float64(h.k.Now()))
			h.res.QueueScans += out.QueueScanned
			cost := h.rc.Costs.ServerDispatchMs + float64(out.QueueScanned)*h.rc.Costs.ScanMs
			h.serverProc.Exec(sim.Time(cost), func() {
				for _, rep := range out.Replies {
					h.net.Send(netsim.ServerNode, h.nodeOf(rep.To), rep.Msg)
				}
			})
			if h.k.Now()+interval <= h.horizon {
				h.k.After(interval, tick)
			}
		}
		h.k.After(interval, tick)
	}
}

// --- Central ---

func (h *harness) buildCentral() {
	vis := h.rc.CentralVisibility
	if vis == 0 {
		vis = h.rc.World.Visibility
	}
	h.centralSrv = baseline.NewCentralServer(h.init, vis, h.rc.Verify)
	h.serverProc = sim.NewProc(h.k, "server")
	h.centralClients = make(map[action.ClientID]*baseline.CentralClient)
	h.clientProcs = make(map[action.ClientID]*sim.Proc)

	h.net.AddNode(netsim.ServerNode, func(from netsim.NodeID, msg netsim.Message) {
		sub, ok := msg.(*wire.Submit)
		if !ok {
			return
		}
		out := h.centralSrv.HandleSubmit(action.ClientID(from), sub)
		cost := h.rc.Costs.ServerDispatchMs
		for _, a := range out.Executed {
			cost += h.rc.Costs.actionCost(a)
		}
		h.serverProc.Exec(sim.Time(cost), func() {
			for _, rep := range out.Replies {
				h.net.Send(netsim.ServerNode, h.nodeOf(rep.To), rep.Msg)
			}
		})
	})

	for i := 1; i <= h.rc.World.NumAvatars; i++ {
		cid := action.ClientID(i)
		h.centralSrv.RegisterClient(cid)
		cl := baseline.NewCentralClient(cid, h.init)
		h.centralClients[cid] = cl
		proc := sim.NewProc(h.k, fmt.Sprintf("client%d", i))
		h.clientProcs[cid] = proc
		h.net.AddNode(h.nodeOf(cid), func(from netsim.NodeID, msg netsim.Message) {
			commits := cl.HandleMsg(msg.(wire.Msg))
			// The thin client only installs values: negligible compute.
			proc.Exec(0, func() { h.recordCommits(commits) })
		})
	}
}

// --- Broadcast ---

func (h *harness) buildBroadcast() {
	h.broadcastSrv = baseline.NewBroadcastServer(h.rc.Verify)
	h.serverProc = sim.NewProc(h.k, "server")
	h.coreClients = make(map[action.ClientID]*core.Client)
	h.clientProcs = make(map[action.ClientID]*sim.Proc)
	cfg := baseline.NewBroadcastClientConfig()

	h.net.AddNode(netsim.ServerNode, func(from netsim.NodeID, msg netsim.Message) {
		sub, ok := msg.(*wire.Submit)
		if !ok {
			return
		}
		out := h.broadcastSrv.HandleSubmit(action.ClientID(from), sub)
		h.serverProc.Exec(sim.Time(h.rc.Costs.ServerDispatchMs), func() {
			for _, rep := range out.Replies {
				h.net.Send(netsim.ServerNode, h.nodeOf(rep.To), rep.Msg)
			}
		})
	})

	h.buildCoreClients(cfg, func(cid action.ClientID) {
		h.broadcastSrv.RegisterClient(cid)
	})
}

// --- RING ---

func (h *harness) buildRing() {
	vis := h.rc.RingVisibility
	if vis == 0 {
		vis = h.rc.World.Visibility
	}
	h.ringSrv = baseline.NewRingServer(vis, true) // history needed for divergence
	h.serverProc = sim.NewProc(h.k, "server")
	h.coreClients = make(map[action.ClientID]*core.Client)
	h.clientProcs = make(map[action.ClientID]*sim.Proc)
	cfg := baseline.NewRingClientConfig()

	h.net.AddNode(netsim.ServerNode, func(from netsim.NodeID, msg netsim.Message) {
		sub, ok := msg.(*wire.Submit)
		if !ok {
			return
		}
		out := h.ringSrv.HandleSubmit(action.ClientID(from), sub)
		h.serverProc.Exec(sim.Time(h.rc.Costs.ServerDispatchMs), func() {
			for _, rep := range out.Replies {
				h.net.Send(netsim.ServerNode, h.nodeOf(rep.To), rep.Msg)
			}
		})
	})

	h.buildCoreClients(cfg, func(cid action.ClientID) {
		h.ringSrv.RegisterClient(cid)
	})
}

// buildCoreClients wires core.Client engines (used by Broadcast and RING)
// to the network.
func (h *harness) buildCoreClients(cfg core.Config, register func(action.ClientID)) {
	for i := 1; i <= h.rc.World.NumAvatars; i++ {
		cid := action.ClientID(i)
		register(cid)
		cl := core.NewClient(cid, cfg, h.init)
		h.coreClients[cid] = cl
		proc := sim.NewProc(h.k, fmt.Sprintf("client%d", i))
		h.clientProcs[cid] = proc
		node := h.nodeOf(cid)
		h.net.AddNode(node, func(from netsim.NodeID, msg netsim.Message) {
			out := cl.HandleMsg(msg.(wire.Msg))
			h.res.Violations = append(h.res.Violations, out.Violations...)
			proc.Exec(sim.Time(h.clientBatchCost(out)), func() {
				h.recordCommits(out.Commits)
				for _, m := range out.ToServer {
					h.net.Send(node, netsim.ServerNode, m)
				}
			})
		})
	}
}

// --- workload ---

// scheduleWorkload schedules MovesPerClient moves per client, one every
// MoveIntervalMs, with client start times staggered across one interval
// (real players are not phase-locked).
func (h *harness) scheduleWorkload() {
	h.horizon = sim.Time(float64(h.rc.MovesPerClient)*h.rc.MoveIntervalMs + 2*h.rc.LatencyMs + h.rc.SlackMs)
	n := h.rc.World.NumAvatars
	for i := 1; i <= n; i++ {
		cid := action.ClientID(i)
		offset := h.rc.MoveIntervalMs * float64(i-1) / float64(n)
		for m := 0; m < h.rc.MovesPerClient; m++ {
			at := sim.Time(offset + float64(m)*h.rc.MoveIntervalMs)
			h.k.At(at, func() { h.submitMove(cid) })
		}
	}
}

// submitMove creates and submits one move for the client, reading the
// avatar from the freshest view the client has.
func (h *harness) submitMove(cid action.ClientID) {
	avatar := manhattan.AvatarID(int(cid))
	node := h.nodeOf(cid)
	proc := h.clientProcs[cid]

	if h.lockClients != nil {
		h.submitMoveLocking(cid)
		return
	}
	if h.ownClients != nil {
		h.submitMoveOwnership(cid)
		return
	}
	if h.zones != nil {
		h.submitMoveZoned(cid)
		return
	}
	if h.centralClients != nil {
		cl := h.centralClients[cid]
		mv, err := h.w.NewMove(cl.NextActionID(), avatar, cl.View())
		if err != nil {
			h.res.Violations = append(h.res.Violations, err.Error())
			return
		}
		h.sampleVisibility(cl.View(), avatar)
		msg := cl.Submit(mv)
		h.submitAt[mv.ID()] = h.k.Now()
		h.res.Submitted++
		// The thin client does not evaluate the move; it ships inputs.
		h.net.Send(node, netsim.ServerNode, msg)
		return
	}

	cl := h.coreClients[cid]
	view := cl.Optimistic()
	mv, err := h.w.NewMove(cl.NextActionID(), avatar, view)
	if err != nil {
		h.res.Violations = append(h.res.Violations, err.Error())
		return
	}
	h.sampleVisibility(view, avatar)
	msg, _ := cl.Submit(mv)
	h.submitAt[mv.ID()] = h.k.Now()
	h.res.Submitted++
	// The optimistic evaluation is real compute on the client.
	proc.Exec(sim.Time(h.rc.Costs.actionCost(mv)), func() {
		h.net.Send(node, netsim.ServerNode, msg)
	})
}

func (h *harness) sampleVisibility(view world.Reader, avatar world.ObjectID) {
	h.visSum += float64(h.w.VisibleAvatarCount(view, avatar))
	h.visSamples++
}

// --- wrap-up ---

func (h *harness) finish() {
	r := h.res
	r.TotalBytes = h.net.TotalBytes()
	r.ServerSentBytes, r.ServerRecvBytes = func() (uint64, uint64) {
		s, rv := h.net.NodeBytes(netsim.ServerNode)
		return s, rv
	}()
	if h.serverProc != nil {
		r.ServerBusyMs = float64(h.serverProc.BusyTotal())
	}
	for _, p := range h.zoneProcs {
		if b := float64(p.BusyTotal()); b > r.ServerBusyMs {
			r.ServerBusyMs = b // the busiest zone server
		}
	}
	for _, p := range h.clientProcs {
		if b := float64(p.BusyTotal()); b > r.MaxClientBusyMs {
			r.MaxClientBusyMs = b
		}
	}
	if h.seveSrv != nil {
		r.Dropped = h.seveSrv.TotalDropped()
		for cid, n := range h.seveSrv.DroppedByClient() {
			r.DropsByClient[cid] = n
		}
	}
	if h.ringSrv != nil {
		r.Divergence = h.ringDivergence()
	}
	for _, cl := range h.coreClients {
		r.MaxStableVersions = max(r.MaxStableVersions, cl.Stable().Versions())
		r.MaxStoredVersions = max(r.MaxStoredVersions, cl.Stable().Stored())
	}
	if h.ownSrv != nil {
		r.Divergence = h.ownershipDivergence()
	}
	if h.lockSrv != nil {
		r.LockQueued = h.lockSrv.Queued()
	}
	r.Unresolved = r.Submitted - r.Committed - r.Dropped
}

// serialState is the serial oracle's final state: hist replayed from the
// initial world.
func (h *harness) serialState(hist []action.Envelope) *world.State {
	st := h.init.Clone()
	for _, env := range hist {
		for _, w := range action.Eval(env.Act, world.StateView{S: st}).Writes {
			st.Set(w.ID, w.Val)
		}
	}
	return st
}

// ringDivergence counts, across clients, held objects whose final value
// differs from the serial oracle's.
func (h *harness) ringDivergence() int {
	st := h.serialState(h.ringSrv.History())
	total := 0
	for _, cl := range h.coreClients {
		total += baseline.Divergence(cl.Stable(), cl.Stable().IDs(), st)
	}
	return total
}

// verify replays the recorded history through the serial oracle and
// checks the consistency invariants appropriate to the architecture.
func (h *harness) verify() error {
	if len(h.res.Violations) > 0 {
		return fmt.Errorf("experiments: %d protocol violations; first: %s",
			len(h.res.Violations), h.res.Violations[0])
	}
	if h.seveSrv == nil {
		return nil // baselines have no Theorem 1 obligation
	}
	hist := h.seveSrv.History()
	if h.seveSrv.Installed() == uint64(len(hist)) && !h.seveSrv.Authoritative().Equal(h.serialState(hist)) {
		return fmt.Errorf("experiments: ζS diverged from serial oracle")
	}
	return nil
}
