package experiments

import (
	"fmt"

	"seve/internal/action"
	"seve/internal/baseline"
	"seve/internal/manhattan"
	"seve/internal/netsim"
	"seve/internal/sim"
	"seve/internal/wire"
	"seve/internal/world"
)

// This file wires the Section II-B protocol-family baselines — locking
// and object ownership — into the simulator, extending the Section V
// comparison to every protocol class the paper discusses.

// --- Locking ---

func (h *harness) buildLocking() {
	h.lockSrv = baseline.NewLockServer(h.init)
	h.serverProc = sim.NewProc(h.k, "server")
	h.lockClients = make(map[action.ClientID]*baseline.LockClient)
	h.clientProcs = make(map[action.ClientID]*sim.Proc)

	h.net.AddNode(netsim.ServerNode, func(from netsim.NodeID, msg netsim.Message) {
		var out baseline.Output
		switch m := msg.(type) {
		case *wire.Submit:
			out = h.lockSrv.HandleSubmit(action.ClientID(from), m)
		case *wire.Completion:
			out = h.lockSrv.HandleEffect(action.ClientID(from), m)
		default:
			return
		}
		h.serverProc.Exec(sim.Time(h.rc.Costs.ServerDispatchMs), func() {
			for _, rep := range out.Replies {
				h.net.Send(netsim.ServerNode, h.nodeOf(rep.To), rep.Msg)
			}
		})
	})

	for i := 1; i <= h.rc.World.NumAvatars; i++ {
		cid := action.ClientID(i)
		h.lockSrv.RegisterClient(cid)
		cl := baseline.NewLockClient(cid, h.init)
		h.lockClients[cid] = cl
		proc := sim.NewProc(h.k, fmt.Sprintf("client%d", i))
		h.clientProcs[cid] = proc
		node := h.nodeOf(cid)
		h.net.AddNode(node, func(from netsim.NodeID, msg netsim.Message) {
			out := cl.HandleMsg(msg.(wire.Msg))
			cost := 0.0
			if out.Executed != nil {
				cost = h.rc.Costs.actionCost(out.Executed)
			}
			proc.Exec(sim.Time(cost), func() {
				h.recordCommits(out.Commits)
				for _, m := range out.ToServer {
					h.net.Send(node, netsim.ServerNode, m)
				}
			})
		})
	}
}

// --- Ownership ---

func (h *harness) buildOwnership() {
	owner := make(map[world.ObjectID]action.ClientID, h.rc.World.NumAvatars)
	for i := 1; i <= h.rc.World.NumAvatars; i++ {
		owner[manhattan.AvatarID(i)] = action.ClientID(i)
	}
	h.ownSrv = baseline.NewOwnershipServer(owner, true) // history for divergence
	h.serverProc = sim.NewProc(h.k, "server")
	h.ownClients = make(map[action.ClientID]*baseline.OwnershipClient)
	h.clientProcs = make(map[action.ClientID]*sim.Proc)

	h.net.AddNode(netsim.ServerNode, func(from netsim.NodeID, msg netsim.Message) {
		sub, ok := msg.(*wire.Submit)
		if !ok {
			return
		}
		out := h.ownSrv.HandleUpdate(action.ClientID(from), sub)
		h.serverProc.Exec(sim.Time(h.rc.Costs.ServerDispatchMs), func() {
			for _, rep := range out.Replies {
				h.net.Send(netsim.ServerNode, h.nodeOf(rep.To), rep.Msg)
			}
		})
	})

	for i := 1; i <= h.rc.World.NumAvatars; i++ {
		cid := action.ClientID(i)
		h.ownSrv.RegisterClient(cid)
		cl := baseline.NewOwnershipClient(cid, world.NewIDSet(manhattan.AvatarID(i)), h.init)
		h.ownClients[cid] = cl
		proc := sim.NewProc(h.k, fmt.Sprintf("client%d", i))
		h.clientProcs[cid] = proc
		h.net.AddNode(h.nodeOf(cid), func(from netsim.NodeID, msg netsim.Message) {
			applied := cl.HandleMsg(msg.(wire.Msg))
			cost := 0.0
			for _, a := range applied {
				cost += h.rc.Costs.actionCost(a)
			}
			proc.Exec(sim.Time(cost), func() {})
		})
	}
}

// submitMoveLocking submits through the lock client: no optimistic
// evaluation — the client waits for its grant.
func (h *harness) submitMoveLocking(cid action.ClientID) {
	cl := h.lockClients[cid]
	avatar := manhattan.AvatarID(int(cid))
	mv, err := h.w.NewMove(cl.NextActionID(), avatar, cl.View())
	if err != nil {
		h.res.Violations = append(h.res.Violations, err.Error())
		return
	}
	h.sampleVisibility(cl.View(), avatar)
	msg := cl.Submit(mv)
	h.submitAt[mv.ID()] = h.k.Now()
	h.res.Submitted++
	h.net.Send(h.nodeOf(cid), netsim.ServerNode, msg)
}

// submitMoveOwnership executes locally (instant commit) and ships the
// update for relaying.
func (h *harness) submitMoveOwnership(cid action.ClientID) {
	cl := h.ownClients[cid]
	avatar := manhattan.AvatarID(int(cid))
	mv, err := h.w.NewMove(cl.NextActionID(), avatar, cl.View())
	if err != nil {
		h.res.Violations = append(h.res.Violations, err.Error())
		return
	}
	h.sampleVisibility(cl.View(), avatar)
	h.res.Submitted++
	update, res, ok := cl.Execute(mv)
	if !ok {
		h.res.Dropped++ // contention the protocol cannot express
		return
	}
	node := h.nodeOf(cid)
	proc := h.clientProcs[cid]
	cost := h.rc.Costs.actionCost(mv)
	proc.Exec(sim.Time(cost), func() {
		// The owner's commit is local: response time is just its own
		// evaluation.
		h.res.Response.Add(float64(cost))
		h.res.Committed++
		_ = res
		h.net.Send(node, netsim.ServerNode, update)
	})
}

// ownershipDivergence mirrors ringDivergence for the ownership caches.
func (h *harness) ownershipDivergence() int {
	st := h.serialState(h.ownSrv.History())
	total := 0
	for _, cl := range h.ownClients {
		total += baseline.Divergence(cl.View(), cl.View().IDs(), st)
	}
	return total
}
