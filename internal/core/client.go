package core

import (
	"fmt"

	"seve/internal/action"
	"seve/internal/metrics"
	"seve/internal/wire"
	"seve/internal/world"
)

// DefaultMaxPendingBatches bounds the client's out-of-order batch buffer:
// a relayed batch whose predecessor never arrives would otherwise make
// the client buffer every later batch forever. Gaps under hybrid relay
// are a few batches deep; thousands means the missing predecessor is
// never coming. Overflow drops the arriving batch and reports a
// violation.
const DefaultMaxPendingBatches = 4096

// Client is the client-side protocol engine: Algorithm 1 in ModeBasic and
// Algorithm 4 in the incomplete-world modes, with Algorithm 3 as the
// reconciliation procedure.
//
// The client maintains two versions of the world state (Section III-A):
// an optimistic version ζCO to which locally created actions are applied
// immediately, and a stable version ζCS to which actions are applied in
// the server-assigned serial order. ζCS is a multiversion store because
// under the Incomplete World Model the server may deliver an action older
// than ones the client has already applied (a later transitive closure
// can reach further back); replaying it exactly requires reading each
// object as of the action's serial position. See world.MVStore.
type Client struct {
	id  action.ClientID
	cfg Config

	co *world.State   // ζCO, optimistic
	cs *world.MVStore // ζCS, stable (multiversion)

	// queue is Q = [⟨a1,v1⟩, …, ⟨ak,vk⟩]: locally generated actions not
	// yet received back from the server, with their optimistic results.
	queue []pendingAction

	nextActSeq uint32

	// Batch-order restoration: batches from the server are numbered per
	// recipient; relayed copies take a two-hop path and can arrive out of
	// order relative to direct replies, which would violate the
	// closures' sent() assumptions. pendingBatches buffers gaps, capped
	// at maxPending: 0 means DefaultMaxPendingBatches, negative unbounded
	// (only this package's tests set it).
	nextBatchSeq   uint64
	pendingBatches map[uint64]*wire.Batch
	maxPending     int

	// Incremental reconciliation state. intern maps the sparse ObjectIDs
	// this client has touched to dense indices; wsq maintains WS(Q) as a
	// multiset over them (each queued action Incs its declared write set
	// on enqueue, Decs on resolution); div is the divergence set — every
	// object where ζCO may differ from ζCS's latest version, maintained
	// as an undo log by the optimistic/stable write paths so Algorithm 3
	// rolls back only those objects instead of the full WS(Q) union.
	intern          *world.Interner
	wsq             world.CountedSet
	div             world.ScratchSet
	divScratch      []uint32
	resolvedScratch []uint32

	// scratchTx is the reusable transaction of every evaluation: Submit,
	// the reconcile re-apply loop, and every envelope applied to ζCS. It
	// must never back a Result that escapes: a commit report or a
	// completion gets a clone (applyStable's keep), and every other user
	// is done with the Result before the next Reset. stableView is the
	// view it reads ζCS through, kept here so arming it allocates nothing.
	scratchTx  *world.Tx
	stableView world.AtView
	// batchEnvs is the envelope count of the batch being applied, the
	// capacity ClientOutput.Applied is given on its first remote one.
	batchEnvs int

	// Session-resume state (Config.ResumeWindow > 0). sentCompletions
	// retains the completion messages for own committed actions until a
	// batch's InstalledUpTo acknowledges their installation — a
	// completion lost with the connection would otherwise stall the
	// server's install pipeline forever. ownRedeliverFloor is set by a
	// snapshot resume: own actions at or below it that are no longer
	// queued had already committed before the disconnect, and a
	// post-snapshot closure re-delivering them is applied silently as
	// remote instead of reported as an out-of-order violation.
	sentCompletions   []*wire.Completion
	ackedInstalled    uint64
	ownRedeliverFloor uint32
	// installPending retains each own committed action alongside its
	// completion until a batch's InstalledUpTo acknowledges the
	// installation. A commit is provisional until then: if the server
	// crashes before the epoch seals, the position is rolled back and
	// re-issued, and the boot fence re-queues the action from here —
	// without it the action would be lost (it left the queue at commit
	// time) while the client still counted it as committed.
	installPending []pendingInstall
	// boot is the server's recovery generation, learned from the Welcome
	// and updated by CatchUp verdicts. A CatchUp whose Boot differs means
	// the server restarted from its journal: serial positions above its
	// InstalledUpTo were lost and will be re-issued to different actions,
	// so completions retained for them are fenced (dropped, not re-sent)
	// rather than allowed to ack state the crash rolled back.
	boot uint64

	// Integrity verdict state (DESIGN.md §16). A wire.Quarantine latches
	// the flag; the engine stops submitting and the transport layer
	// treats the verdict as a permanent stop (no reconnect loop — the
	// server refuses resumes from a quarantined ledger anyway).
	quarantined bool
	quarReason  uint8

	// fullRollback makes Algorithm 3 roll back the full WS(Q) ∪ resolved
	// write set from ζCS and re-clone every optimistic result, instead of
	// copying only the tracked divergence set through scratch buffers —
	// the reference leg of TestReconcileEquivalence; only this package's
	// tests set it.
	fullRollback bool
	// noGC keeps every ζCS version, the reference leg of
	// TestClientReplicaEquivalence; only this package's tests set it.
	noGC bool

	// stats holds the engine's cumulative counters, incremented in place;
	// Metrics fills in the gauges.
	stats metrics.ClientStats
	// prunedBelow is the installed point ζCS was last pruned at (the
	// Section III-C garbage collection watermark).
	prunedBelow uint64
}

type pendingAction struct {
	act        action.Action
	optimistic action.Result
	// wsd is the action's declared write set, interned at enqueue time,
	// backing the wsq multiset updates.
	wsd []uint32
}

// pendingInstall is one own action committed by a closure reply whose
// installation has not yet been acknowledged by a batch's
// InstalledUpTo — the window in which a server crash revokes the
// commit.
type pendingInstall struct {
	act action.Action
	seq uint64
	wsd []uint32
}

// NewClient returns a client engine whose both world versions start as
// init. The initial world is version 0 in the stable store, matching the
// server's convention that serial positions start at 1.
func NewClient(id action.ClientID, cfg Config, init *world.State) *Client {
	cs := world.NewMVStore()
	cs.Seed(init)
	c := &Client{
		id:             id,
		cfg:            cfg,
		co:             init.Clone(),
		cs:             cs,
		nextBatchSeq:   1,
		pendingBatches: make(map[uint64]*wire.Batch),
		intern:         world.NewInterner(),
	}
	c.div.Reset(0)
	c.scratchTx = world.NewTx(world.StateView{S: c.co})
	return c
}

// ID returns the client's identity.
func (c *Client) ID() action.ClientID { return c.id }

// NextActionID mints the identity for the client's next action.
func (c *Client) NextActionID() action.ID {
	c.nextActSeq++
	return action.ID{Client: c.id, Seq: c.nextActSeq}
}

// Optimistic returns the optimistic world version ζCO. Applications read
// it to decide their next action (it reflects local actions instantly,
// which is what makes the game feel responsive).
func (c *Client) Optimistic() *world.State { return c.co }

// Stable returns the stable world version ζCS.
func (c *Client) Stable() *world.MVStore { return c.cs }

// QueueLen reports |Q|, the number of in-flight local actions.
func (c *Client) QueueLen() int { return len(c.queue) }

// Reconciliations reports how many times Algorithm 3 ran.
func (c *Client) Reconciliations() int { return c.stats.Reconciliations }

// AppliedRemote reports how many other-client actions were evaluated
// against the stable state — the client-side compute load the Incomplete
// World Model exists to bound. Server blind writes are counted
// separately by AppliedBlind.
func (c *Client) AppliedRemote() int { return c.stats.AppliedRemote }

// AppliedBlind reports how many server-generated blind writes were
// applied to the stable state.
func (c *Client) AppliedBlind() int { return c.stats.AppliedBlind }

// Metrics snapshots the client engine's counters.
func (c *Client) Metrics() metrics.ClientStats {
	st := c.stats
	st.QueueLen = len(c.queue)
	st.BufferedBatches = len(c.pendingBatches)
	st.DivergedObjects = c.div.Len()
	st.InternedObjects = c.intern.Len()
	st.StableVersions = c.cs.Versions()
	st.PrunedBelow = c.prunedBelow
	return st
}

// LastAppliedBatch returns the highest contiguously applied per-client
// batch sequence number — what a wire.Resume reports as LastBatchSeq.
func (c *Client) LastAppliedBatch() uint64 { return c.nextBatchSeq - 1 }

// markDiverged records that ζCO(id) may no longer equal the latest
// ζCS(id). Called on every optimistic write (co moved ahead) and every
// stable install (cs moved ahead); the remote-apply path removes ids it
// copies through to co.
func (c *Client) markDiverged(id world.ObjectID) {
	idx := c.intern.Intern(id)
	c.div.Grow(c.intern.Len())
	c.div.Add(idx)
}

// Submit performs step 2 of Algorithms 1/4: the action is executed on
// ζCO producing its optimistic evaluation v, the pair ⟨a,v⟩ is appended
// to Q, and a Submit message for the server is returned.
//
// The action must have been given an ID from NextActionID. The optimistic
// result is returned so the application can render the action's
// provisional effect immediately. It is Q's own copy, which a
// reconciliation refreshes in place: read it before the next call into the
// engine, or Clone it.
func (c *Client) Submit(a action.Action) (*wire.Submit, action.Result) {
	c.scratchTx.Reset(world.StateView{S: c.co})
	v := action.EvalTx(a, c.scratchTx)
	c.applyOptimisticWrites(v)
	wsd := c.intern.InternSet(a.WriteSet(), nil)
	c.wsq.Grow(c.intern.Len())
	c.div.Grow(c.intern.Len())
	for _, o := range wsd {
		c.wsq.Inc(o)
	}
	// v aliases the scratch transaction; Q keeps the one copy.
	v = v.Clone()
	c.queue = append(c.queue, pendingAction{act: a, optimistic: v, wsd: wsd})
	return &wire.Submit{Env: action.Envelope{Origin: c.id, Act: a}}, v
}

// applyOptimistic evaluates a against ζCO and applies its writes.
func (c *Client) applyOptimistic(a action.Action) action.Result {
	res := action.Eval(a, world.StateView{S: c.co})
	c.applyOptimisticWrites(res)
	return res
}

// applyOptimisticWrites installs a result's writes into ζCO, marking
// each object diverged from the stable version. ζCO is owned outright by
// this engine and nothing retains Get results across calls, so the
// writes go through the in-place path.
func (c *Client) applyOptimisticWrites(res action.Result) {
	for _, w := range res.Writes {
		c.co.SetInPlace(w.ID, w.Val)
		c.markDiverged(w.ID)
	}
}

// unqueue removes entry i from Q, releasing its write set from the WS(Q)
// multiset and zeroing the vacated tail slot so the backing array does
// not pin the removed action and its cloned result (the same pinning bug
// the PR 1 server-queue compaction fixed).
func (c *Client) unqueue(i int) {
	for _, o := range c.queue[i].wsd {
		c.wsq.Dec(o)
	}
	copy(c.queue[i:], c.queue[i+1:])
	c.queue[len(c.queue)-1] = pendingAction{}
	c.queue = c.queue[:len(c.queue)-1]
}

// HandleBatch performs steps 4–5 of Algorithms 1/4 for every envelope in
// a server batch, restoring per-recipient batch order first: a sequenced
// batch ahead of its turn is buffered; processing resumes — possibly
// through several buffered batches — once the gap fills. Unsequenced
// batches (ClientSeq 0, from baseline servers) process immediately.
//
// A coalesced batch (CoversFrom > 0, DESIGN.md §13) stands in for the
// contiguous sequence range [CoversFrom, ClientSeq] the server's
// delivery queue merged while undelivered: it applies when the range
// contains the expected next sequence and advances past the whole range.
func (c *Client) HandleBatch(b *wire.Batch) ClientOutput {
	var out ClientOutput
	if b.ClientSeq == 0 {
		c.processBatch(b, &out)
		return out
	}
	start := b.ClientSeq
	if b.CoversFrom != 0 && b.CoversFrom < start {
		start = b.CoversFrom
	}
	if b.ClientSeq < c.nextBatchSeq {
		// Already applied: a resume's retained suffix can overlap batches
		// that arrived just before the connection died, and a relayed
		// copy can trail a direct redelivery. Buffering a stale batch
		// would pin it in pendingBatches forever.
		c.stats.StaleBatches++
		return out
	}
	if start > c.nextBatchSeq {
		max := c.maxPending
		if max == 0 {
			max = DefaultMaxPendingBatches
		}
		// Buffered under the first sequence it covers, where the drain
		// loop below will look for it.
		if _, dup := c.pendingBatches[start]; !dup && max > 0 && len(c.pendingBatches) >= max {
			c.stats.DroppedBatches++
			out.Violations = append(out.Violations, fmt.Sprintf(
				"client %d: pending-batch buffer full (%d buffered, next expected %d); dropping batch %d",
				c.id, len(c.pendingBatches), c.nextBatchSeq, b.ClientSeq))
			return out
		}
		c.pendingBatches[start] = b
		return out
	}
	c.applySequenced(b, &out)
	for {
		next, ok := c.pendingBatches[c.nextBatchSeq]
		if !ok {
			return out
		}
		delete(c.pendingBatches, c.nextBatchSeq)
		c.applySequenced(next, &out)
	}
}

// applySequenced processes an in-order batch and advances the expected
// sequence past every number it covers, counting coalesced deliveries.
func (c *Client) applySequenced(b *wire.Batch, out *ClientOutput) {
	if b.CoversFrom != 0 && b.CoversFrom < b.ClientSeq {
		c.stats.Coalesced++
		c.stats.Superseded += int(b.ClientSeq - b.CoversFrom)
	}
	c.processBatch(b, out)
	c.nextBatchSeq = b.ClientSeq + 1
}

// processBatch applies one batch in envelope order.
func (c *Client) processBatch(b *wire.Batch, out *ClientOutput) {
	c.batchEnvs = len(b.Envs)
	for _, env := range b.Envs {
		if env.Origin == c.id {
			if b.Push {
				// A shared hybrid push batch can carry our own submission
				// (a cell-mate needed it). Install its stable writes — a
				// later action in this batch may read them — but do NOT
				// resolve it here: commit, reconciliation, and the
				// completion message belong to the closure reply, which
				// arrives in submission order. Re-evaluation there is
				// idempotent: same versions, same result.
				c.applyStable(env, out, false)
				continue
			}
			if c.ownRedeliverFloor > 0 && env.Act.ID().Seq <= c.ownRedeliverFloor && !c.inQueue(env.Act.ID()) {
				// A post-snapshot closure re-delivered an own action that
				// committed before the disconnect (the snapshot resume
				// cleared our sent() bits, so its dependents drag it back
				// in). Its writes are already ours; apply as remote.
				c.stats.OwnRedelivered++
				c.handleRemote(env, out)
				continue
			}
			c.handleOwn(env, out)
		} else {
			c.handleRemote(env, out)
		}
	}
	if c.cfg.ResumeWindow > 0 && b.InstalledUpTo > c.ackedInstalled {
		// The server has installed through InstalledUpTo: the retained
		// completions at or below it did their job, and the commits at or
		// below it are no longer provisional.
		c.ackedInstalled = b.InstalledUpTo
		i := 0
		for i < len(c.sentCompletions) && c.sentCompletions[i].Seq <= c.ackedInstalled {
			i++
		}
		if i > 0 {
			c.sentCompletions = append(c.sentCompletions[:0], c.sentCompletions[i:]...)
		}
		c.pruneInstallPending(c.ackedInstalled)
	}
	if b.InstalledUpTo > c.prunedBelow && !c.noGC {
		// Server-driven garbage collection (Section III-C): no correctly
		// formed batch reads below the installed point, because blind
		// writes are stamped at it. Each survivor keeps its own position:
		// the client may never have been sent a later write.
		c.cs.PruneBelow(b.InstalledUpTo)
		c.prunedBelow = b.InstalledUpTo
	}
}

// handleRemote is step 4: "action b originated at some other client, or
// is a blind write created by the server". The action is applied to ζCS;
// each of its writes is also performed on ζCO if and only if the object
// is not in WS(Q) (those objects are awaiting permanent values for the
// client's own in-flight actions).
func (c *Client) handleRemote(env action.Envelope, out *ClientOutput) {
	// Only the failure-tolerance extension sends a remote action's result
	// anywhere; otherwise it is spent by the end of this function.
	completes := c.cfg.FailureTolerant && env.Origin != action.OriginServer
	res := c.applyStable(env, out, completes)
	if env.Origin == action.OriginServer {
		c.stats.AppliedBlind++
	} else {
		c.stats.AppliedRemote++
	}
	if out.Applied == nil {
		out.Applied = make([]action.Action, 0, c.batchEnvs)
	}
	out.Applied = append(out.Applied, env.Act)

	for _, w := range res.Writes {
		// applyStable interned every written id.
		idx, _ := c.intern.Lookup(w.ID)
		if c.wsq.Contains(idx) {
			continue
		}
		c.co.SetInPlace(w.ID, w.Val)
		// The object leaves the divergence set only if this write is the
		// stable store's newest version for it — under the Incomplete
		// World Model a closure can deliver an envelope older than
		// already-applied ones, and then ζCO just took a non-latest
		// value, which stays diverged.
		if _, seq, ok := c.cs.Latest(w.ID); ok && seq == env.Seq {
			c.div.Remove(idx)
		}
	}

	if completes {
		// Failure-tolerance extension: complete every applied action.
		out.ToServer = append(out.ToServer, &wire.Completion{
			Seq: env.Seq, By: c.id, Res: res,
		})
	}
}

// handleOwn is step 5: the returned action must be a1, the head of Q
// (server replies and pushes are FIFO per link, so a client's own actions
// come back in submission order). Its stable evaluation u is compared
// with the optimistic evaluation v1; on disagreement Algorithm 3
// reconciles ζCO with ζCS. In the incomplete-world modes a completion
// message ⟨a1, u⟩ is sent to the server either way.
func (c *Client) handleOwn(env action.Envelope, out *ClientOutput) {
	if len(c.queue) == 0 || c.queue[0].act.ID() != env.Act.ID() {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"client %d: own action %v returned out of order (queue head %v)",
			c.id, env.Act.ID(), c.queueHeadID()))
		// Recover by treating it as remote so the stable state stays
		// correct even if the transport misbehaved.
		c.handleRemote(env, out)
		return
	}

	u := c.applyStable(env, out, true)
	head := c.queue[0]
	c.unqueue(0)

	reconciled := false
	if !u.Equal(head.optimistic) {
		c.reconcile(head.act.WriteSet())
		reconciled = true
	}

	// u backs both the commit report and the completion below: it is
	// applyStable's copy, which the reconciliation above did not touch,
	// and neither holder writes to it.
	out.Commits = append(out.Commits, Commit{
		ActID:      env.Act.ID(),
		Seq:        env.Seq,
		Res:        u,
		Reconciled: reconciled,
	})

	if c.cfg.Mode >= ModeIncomplete {
		cm := &wire.Completion{Seq: env.Seq, By: c.id, Res: u}
		out.ToServer = append(out.ToServer, cm)
		if c.cfg.ResumeWindow > 0 {
			// Retain until a batch's InstalledUpTo covers it: if this
			// completion is lost with the connection, the resume re-sends
			// it (the server installs nothing past env.Seq-1 without it).
			// The action itself is retained alongside — if the server
			// crashes before installing, the boot fence re-queues it.
			c.sentCompletions = append(c.sentCompletions, cm)
			c.installPending = append(c.installPending, pendingInstall{act: head.act, seq: env.Seq, wsd: head.wsd})
		}
	}
}

// pruneInstallPending drops provisional-commit records at or below the
// acknowledged install point, zeroing vacated slots so the backing
// array does not pin resolved actions.
func (c *Client) pruneInstallPending(upTo uint64) {
	j := 0
	for j < len(c.installPending) && c.installPending[j].seq <= upTo {
		j++
	}
	if j == 0 {
		return
	}
	n := copy(c.installPending, c.installPending[j:])
	for k := n; k < len(c.installPending); k++ {
		c.installPending[k] = pendingInstall{}
	}
	c.installPending = c.installPending[:n]
}

// inQueue reports whether an own action is still pending in Q.
func (c *Client) inQueue(id action.ID) bool {
	for i := range c.queue {
		if c.queue[i].act.ID() == id {
			return true
		}
	}
	return false
}

// applyStable evaluates env against ζCS as of its serial position and
// installs its writes at that position. Each installed object is marked
// diverged: the stable version moved, so it may no longer match ζCO.
//
// The evaluation runs on the scratch transaction. Without keep the
// returned Result aliases its write log and is good until that is next
// Reset — by a Submit, a reconciliation or the next envelope. With keep
// set the Result leaves the engine in a commit report or a completion
// message, so it is a copy of its own.
func (c *Client) applyStable(env action.Envelope, out *ClientOutput, keep bool) action.Result {
	at := env.Seq
	if at > 0 {
		at-- // an action at position n reads the state after 1..n-1
	}
	tx := c.scratchTx
	c.stableView = world.AtView{M: c.cs, Seq: at}
	tx.Reset(&c.stableView)
	ok := env.Act.Apply(tx)

	if c.cfg.Strict {
		if err := action.CheckAccess(env.Act, tx); err != nil {
			out.Violations = append(out.Violations, err.Error())
		}
		// A read of an object with no version at or before env.Seq-1
		// means the closure failed to deliver a needed value — the
		// protocol bug Theorem 1 rules out.
		for _, id := range tx.Missed() {
			out.Violations = append(out.Violations, fmt.Sprintf(
				"client %d: action %v (seq %d) read object %d with no delivered version",
				c.id, env.Act.ID(), env.Seq, id))
		}
	}

	res := action.Result{OK: ok}
	if ok && len(tx.Writes()) > 0 {
		res.Writes = tx.Writes()
		for _, w := range res.Writes {
			c.cs.WriteAt(w.ID, env.Seq, w.Val)
			c.markDiverged(w.ID)
		}
		if keep {
			res = res.Clone()
		}
	}
	return res
}

// HandleRelay applies a hybrid push batch and schedules peer-to-peer
// forwards of the same batch to the other targets (Section VII hybrid
// mode). The forwarded copies share the inner batch's envelope slice —
// the encode-once fan-out case wire.EncodeCache serves — and differ only
// in the per-recipient sequence header. The relay client is always among
// the targets; it does not forward to itself.
func (c *Client) HandleRelay(m *wire.Relay) ClientOutput {
	// Forward first — peers must not wait on this client's own ordering.
	var out ClientOutput
	for i, t := range m.Targets {
		if t == c.id {
			continue
		}
		fwd := &wire.Batch{
			Envs:          m.Inner.Envs,
			Push:          true,
			InstalledUpTo: m.Inner.InstalledUpTo,
		}
		if i < len(m.TargetSeqs) {
			fwd.ClientSeq = m.TargetSeqs[i]
		}
		out.ToPeers = append(out.ToPeers, newReply(t, fwd, nil))
	}
	inner := c.HandleBatch(m.Inner)
	out.ToServer = append(out.ToServer, inner.ToServer...)
	out.Applied = append(out.Applied, inner.Applied...)
	out.Commits = append(out.Commits, inner.Commits...)
	out.DroppedLocal = append(out.DroppedLocal, inner.DroppedLocal...)
	out.Violations = append(out.Violations, inner.Violations...)
	return out
}

// HandleDrop aborts a locally originated action that the Information
// Bound Model invalidated (Algorithm 7: isValid = false). The entry is
// removed from Q and, since its optimistic writes are now wrong,
// Algorithm 3 reconciles.
func (c *Client) HandleDrop(d *wire.Drop) ClientOutput {
	var out ClientOutput
	for i := range c.queue {
		if c.queue[i].act.ID() == d.ActID {
			ws := c.queue[i].act.WriteSet()
			c.unqueue(i)
			c.reconcile(ws)
			out.DroppedLocal = append(out.DroppedLocal, d.ActID)
			return out
		}
	}
	out.Violations = append(out.Violations, fmt.Sprintf(
		"client %d: drop notice for unknown action %v", c.id, d.ActID))
	return out
}

// HandleCatchUp resumes the session after a reconnect. The transport
// obtained m by presenting the session token; the verdict either
// confirms a suffix replay (the retained batches follow through the
// normal HandleBatch path) or carries the snapshot fallback, from
// which ζCS and ζCO are rebuilt at the server's install point. Either
// way, in-flight actions the server never saw are re-submitted and
// retained completions past the install point are re-sent.
func (c *Client) HandleCatchUp(m *wire.CatchUp) ClientOutput {
	var out ClientOutput
	if !m.OK {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"client %d: resume rejected by server (token unknown or stale)", c.id))
		return out
	}
	if m.Boot != c.boot && !m.Snapshot {
		// A restarted server answers every client that may still hold
		// the previous boot by snapshot. A suffix replay across boots
		// would leave the dead boot's stable versions above BootFloor,
		// at positions the new boot re-issues.
		out.Violations = append(out.Violations, fmt.Sprintf(
			"client %d: CatchUp from boot %d (held %d) is not a snapshot", c.id, m.Boot, c.boot))
		return out
	}
	c.stats.Resumes++

	// Actions invalidated while we were away: their Drop notices died
	// with the connection. Unknown ids are fine — the original Drop may
	// have been processed before the disconnect.
	for _, id := range m.DroppedActs {
		for i := range c.queue {
			if c.queue[i].act.ID() == id {
				ws := c.queue[i].act.WriteSet()
				c.unqueue(i)
				if !m.Snapshot {
					// The snapshot rebuild below re-derives ζCO wholesale;
					// reconciling against the pre-snapshot state first
					// would be wasted work.
					c.reconcile(ws)
				}
				out.DroppedLocal = append(out.DroppedLocal, id)
				break
			}
		}
	}

	if m.Boot != c.boot {
		// The server restarted from its journal: serial positions above
		// its recovery floor were rolled back and will be re-issued.
		// Everything the previous boot placed above the floor is void —
		// retained completions and provisional commits here, stable
		// versions in the snapshot rebuild below.
		c.boot = m.Boot
		c.fenceBoot(m, &out)
	}

	if m.Snapshot {
		c.stats.ResumesSnapshot++
		c.rebuildFromSnapshot(m)
	}

	// Re-submit in-flight actions the server never accepted — their
	// uploads were lost, or the crash rolled their positions back. Queue
	// order is submission order (the boot fence re-queues revoked
	// actions at the front, where their action sequence numbers keep it
	// that way), so the server re-stamps them in the original relative
	// order.
	for i := range c.queue {
		if c.queue[i].act.ID().Seq > m.LastActSeq {
			out.ToServer = append(out.ToServer, &wire.Submit{
				Env: action.Envelope{Origin: c.id, Act: c.queue[i].act},
			})
		}
	}
	// Re-send completions the server has not installed past; duplicates
	// are idempotent on the server (held/installed checks).
	for _, cm := range c.sentCompletions {
		if cm.Seq > m.InstalledUpTo {
			out.ToServer = append(out.ToServer, cm)
		}
	}
	return out
}

// fenceBoot rolls the client back to the restarted server's recovery
// floor. Completions retained for rolled-back positions are dropped
// (re-sending them could poison the re-issued positions), and own
// actions whose commits the crash revoked go back to the front of the
// queue — their commits are withdrawn through out.Revoked and they
// re-commit at their re-issued positions. A CatchUp that carries a new
// Boot is always a snapshot (HandleCatchUp refuses any other), so
// rebuildFromSnapshot, which runs next, replaces every stable version
// the previous boot delivered.
func (c *Client) fenceBoot(m *wire.CatchUp, out *ClientOutput) {
	i := 0
	for i < len(c.sentCompletions) && c.sentCompletions[i].Seq <= m.BootFloor {
		i++
	}
	c.sentCompletions = c.sentCompletions[:i]

	j := 0
	for j < len(c.installPending) && c.installPending[j].seq <= m.BootFloor {
		j++
	}
	revoked := c.installPending[j:]
	if len(revoked) == 0 {
		return
	}
	// Re-queue in original submission order, ahead of everything still
	// queued (all of which was submitted later), restoring each write
	// set to the WS(Q) multiset.
	requeued := make([]pendingAction, 0, len(revoked)+len(c.queue))
	c.wsq.Grow(c.intern.Len())
	for _, p := range revoked {
		out.Revoked = append(out.Revoked, Commit{ActID: p.act.ID(), Seq: p.seq})
		for _, o := range p.wsd {
			c.wsq.Inc(o)
		}
		requeued = append(requeued, pendingAction{act: p.act, wsd: p.wsd})
	}
	c.queue = append(requeued, c.queue...)
	c.installPending = c.installPending[:j]
}

// SetBoot records the server's recovery generation from the handshake
// (Welcome.Boot, or the CatchUp of a resume against a restarted
// server); see the boot field for the fencing it arms.
func (c *Client) SetBoot(b uint64) { c.boot = b }

// rebuildFromSnapshot replaces both world versions with the CatchUp's
// blind-write snapshot: ζCS restarts as a fresh multiversion store
// seeded at the server's install point (NOT at version 0 — Theorem 1's
// per-version guarantee is against the serial replay as of each seq),
// and ζCO is the same state with the surviving queue re-applied
// optimistically on top.
func (c *Client) rebuildFromSnapshot(m *wire.CatchUp) {
	cs := world.NewMVStore()
	co := world.NewState()
	for _, w := range m.Writes {
		cs.WriteAt(w.ID, m.InstalledUpTo, w.Val)
		co.Set(w.ID, w.Val)
	}
	c.cs = cs
	c.co = co
	c.prunedBelow = m.InstalledUpTo
	c.ackedInstalled = m.InstalledUpTo
	// Both versions are identical now; divergence restarts from the
	// optimistic re-apply below. wsq is untouched — the queue (after
	// drop processing) still owns exactly its declared write sets.
	c.div.Reset(c.intern.Len())
	for i := range c.queue {
		res := c.applyOptimistic(c.queue[i].act)
		res.CloneInto(&c.queue[i].optimistic)
	}
	// Batch numbering restarts; anything buffered predates the snapshot.
	// A forward jump means the skipped numbers' frames were superseded
	// (mid-session catch-up) or lost past the window — either way they
	// were never individually delivered.
	if m.NextBatchSeq > c.nextBatchSeq {
		c.stats.Superseded += int(m.NextBatchSeq - c.nextBatchSeq)
	}
	c.nextBatchSeq = m.NextBatchSeq
	clear(c.pendingBatches)
	c.ownRedeliverFloor = m.LastActSeq
	// Retained completions and provisional commits at or below the
	// install point are obsolete (the pruning in processBatch may not
	// have seen the latest marker).
	i := 0
	for i < len(c.sentCompletions) && c.sentCompletions[i].Seq <= m.InstalledUpTo {
		i++
	}
	if i > 0 {
		c.sentCompletions = append(c.sentCompletions[:0], c.sentCompletions[i:]...)
	}
	c.pruneInstallPending(m.InstalledUpTo)
}

// HandleMsg dispatches any server message.
func (c *Client) HandleMsg(msg wire.Msg) ClientOutput {
	switch m := msg.(type) {
	case *wire.Batch:
		return c.HandleBatch(m)
	case *wire.Relay:
		return c.HandleRelay(m)
	case *wire.Drop:
		return c.HandleDrop(m)
	case *wire.CatchUp:
		return c.HandleCatchUp(m)
	case *wire.Quarantine:
		return c.HandleQuarantine(m)
	default:
		return ClientOutput{Violations: []string{
			fmt.Sprintf("client %d: unexpected message type %d", c.id, msg.Type()),
		}}
	}
}

// HandleQuarantine records a server integrity verdict (DESIGN.md §16).
// Not a protocol violation from the engine's point of view — the
// message is well-formed server control flow — but the session is over:
// the server silently ignores all further traffic from this ledger and
// refuses its resumes, so the transport layer stops permanently instead
// of reconnecting.
func (c *Client) HandleQuarantine(m *wire.Quarantine) ClientOutput {
	c.quarantined = true
	c.quarReason = m.Reason
	return ClientOutput{}
}

// Quarantined reports whether the server issued an integrity verdict
// against this client, and the violation reason code it carried.
func (c *Client) Quarantined() (reason uint8, ok bool) {
	return c.quarReason, c.quarantined
}

// reconcile is Algorithm 3: ζCO(WS(Q)) ← ζCS(WS(Q)), then the queued
// actions are re-applied to ζCO in order, refreshing their optimistic
// results.
//
// Two clarifications relative to the paper's pseudocode. First,
// Algorithm 3 as printed re-inserts a1 even when invoked from step 5,
// where a1 has just committed with its final stable result; re-queueing
// it would wait forever for a second return. The intent — and this
// implementation — is that the already-resolved head is removed before
// reconciliation and only the still-pending suffix is re-applied.
// Second, the rollback set must include the write set of the action that
// was just resolved (committed with a different result, or dropped):
// its optimistic writes are exactly the divergent ones, and they are no
// longer covered by WS(Q) once it leaves the queue. resolvedWS carries it.
//
// The default path rolls back only the members of the tracked
// divergence set that fall inside WS(Q) ∪ resolvedWS, then re-applies
// the queue through one scratch transaction, refreshing each optimistic
// result in place. The divergence invariant (DESIGN.md §8) makes this
// exactly equivalent to the full-union rollback: every object of the
// rollback set outside the divergence set already has ζCO = ζCS, so the
// copies skipped are precisely the no-ops. fullRollback selects the
// literal full-union rollback instead; TestReconcileEquivalence pins the
// two paths to identical observable behaviour.
func (c *Client) reconcile(resolvedWS world.IDSet) {
	c.stats.Reconciliations++
	if c.fullRollback {
		ws := c.queueWriteSet().Union(resolvedWS)
		c.co.CopyFrom(c.cs, ws)
		for i := range c.queue {
			c.queue[i].optimistic = c.applyOptimistic(c.queue[i].act).Clone()
		}
		return
	}

	// Roll back exactly the objects tracked as diverged within the
	// rollback set WS(Q) ∪ resolvedWS: copy the stable version's latest
	// value over ζCO, deleting objects ζCS no longer has — CopyFrom
	// semantics, restricted to where a copy would change anything. The
	// rest of the rollback set is untouched because, by the divergence
	// invariant, ζCO already equals ζCS there; divergence outside the
	// rollback set stays tracked for a later reconciliation.
	c.resolvedScratch = c.intern.InternSet(resolvedWS, c.resolvedScratch[:0])
	c.div.Grow(c.intern.Len())
	c.wsq.Grow(c.intern.Len())
	c.divScratch = c.div.AppendMembers(c.divScratch[:0])
	for _, idx := range c.divScratch {
		inSet := c.wsq.Contains(idx)
		for _, r := range c.resolvedScratch {
			if inSet {
				break
			}
			inSet = r == idx
		}
		if !inSet {
			continue
		}
		id := c.intern.ID(idx)
		if v, ok := c.cs.Get(id); ok {
			c.co.SetInPlace(id, v)
		} else {
			c.co.Delete(id)
		}
		c.div.Remove(idx)
		c.stats.ReconcileCopies++
	}

	// Re-apply the still-pending queue through the scratch transaction,
	// refreshing each optimistic result into its existing buffers.
	for i := range c.queue {
		c.scratchTx.Reset(world.StateView{S: c.co})
		res := action.EvalTx(c.queue[i].act, c.scratchTx)
		c.applyOptimisticWrites(res)
		res.CloneInto(&c.queue[i].optimistic)
	}
}

// queueWriteSet returns WS(Q), the union of the declared write sets of
// the pending actions. Only the full-rollback reconcile path still needs
// it; membership tests use the wsq multiset.
func (c *Client) queueWriteSet() world.IDSet {
	var ws world.IDSet
	for _, p := range c.queue {
		ws = ws.Union(p.act.WriteSet())
	}
	return ws
}

func (c *Client) queueHeadID() action.ID {
	if len(c.queue) == 0 {
		return action.ID{}
	}
	return c.queue[0].act.ID()
}
