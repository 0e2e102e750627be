package core

import (
	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// DeliveryClass tells the transport's superseding delivery queue
// (DESIGN.md §13) how a reply may be replaced while it waits,
// undelivered, in a slow client's queue. The classes form the
// supersedable-vs-snapshot decision rule: the soundness argument for
// each is the sent-bit/idempotency analysis in §13, not the footprint —
// footprints feed staleness accounting only.
type DeliveryClass uint8

const (
	// DeliveryOrdered frames carry session-critical control flow
	// (Welcome, CatchUp verdicts, lock grants, relays) and are never
	// superseded, merged, or dropped by the queue. The zero value, so an
	// untagged reply is always handled conservatively.
	DeliveryOrdered DeliveryClass = iota
	// DeliveryBatch frames are sequenced state batches (closure replies
	// and First Bound pushes). Contiguous same-flag batches may be
	// coalesced in place (wire.CoalesceFrames); a later DeliverySnapshot
	// supersedes them entirely.
	DeliveryBatch
	// DeliveryCovered frames are drop notices — information a later
	// snapshot re-delivers through the CatchUp's DroppedActs replay, so a
	// snapshot supersedes them.
	DeliveryCovered
	// DeliverySnapshot frames are blind-write catch-ups (Algorithm 6 as a
	// delivery primitive): self-contained replacements for everything the
	// queue holds below them, and for any earlier queued snapshot — the
	// literal UQP replace-in-place case.
	DeliverySnapshot
)

// Delivery is the supersession metadata the engine's plan phase attaches
// to a reply: the class, the covered-object footprint (the write sets
// the reply communicates — staleness accounting), and the epoch (the
// batch sequence number the frame advances the client to).
type Delivery struct {
	Class     DeliveryClass
	Footprint []world.ObjectID
	Epoch     uint64
}

// Reply is a message the server wants delivered to a specific client.
type Reply struct {
	To  action.ClientID
	Msg wire.Msg
	// Deliver carries the supersession metadata for the transport's
	// delivery queue, derived from Msg by newReply.
	Deliver Delivery
}

// newReply addresses msg to a client under the delivery class its type
// determines — the one table transport.SendQueue.Enqueue asserts, so a
// reply cannot be labelled against its message: a Batch is DeliveryBatch
// at its ClientSeq, a Drop DeliveryCovered, a snapshot CatchUp
// DeliverySnapshot at its NextBatchSeq, and everything else (verdicts,
// relays, quarantines) DeliveryOrdered. footprint is the covered-object
// set the queue charges to staleness accounting.
func newReply(to action.ClientID, msg wire.Msg, footprint []world.ObjectID) Reply {
	d := Delivery{Footprint: footprint}
	switch m := msg.(type) {
	case *wire.Batch:
		d.Class, d.Epoch = DeliveryBatch, m.ClientSeq
	case *wire.Drop:
		d.Class = DeliveryCovered
	case *wire.CatchUp:
		if m.Snapshot {
			d.Class, d.Epoch = DeliverySnapshot, m.NextBatchSeq
		}
	}
	return Reply{To: to, Msg: msg, Deliver: d}
}

// ServerOutput is everything a server engine call produced. The engines
// are pure state machines; the transport adapter (simulator or TCP loop)
// delivers Replies and charges QueueScanned against the server's
// processor using its cost model.
type ServerOutput struct {
	// Replies to deliver, in order.
	Replies []Reply
	// QueueScanned counts uncommitted-queue entries examined by closure
	// and validity analysis during this call — the server-side compute
	// the paper measures at 0.04 ms per move (Section V-B1).
	QueueScanned int
	// Dropped is set when the Information Bound Model invalidated the
	// submitted action.
	Dropped bool
}

// Commit records the stable resolution of one locally originated action,
// reported by the client engine so the harness can measure response time
// (submission → stable commit, the paper's headline metric).
type Commit struct {
	ActID action.ID
	Seq   uint64
	// Res is the stable evaluation. Read-only: in the incomplete-world
	// modes the completion message sent to the server shares its writes.
	Res action.Result
	// Reconciled is true when the optimistic evaluation disagreed with
	// the stable one and Algorithm 3 ran.
	Reconciled bool
}

// ClientOutput is everything a client engine call produced.
type ClientOutput struct {
	// ToServer carries messages to send to the server, in order.
	ToServer []wire.Msg
	// Applied lists the actions evaluated against the stable state during
	// this call; the adapter charges their compute cost.
	Applied []action.Action
	// Commits lists locally originated actions resolved during this call.
	Commits []Commit
	// Revoked lists previously reported Commits withdrawn by a boot
	// fence: the server restarted and the committed serial position was
	// rolled back before it became durable. Each revoked action is
	// back in the queue and re-submitted in the same call; it will be
	// reported through Commits again at its re-issued position.
	Revoked []Commit
	// DroppedLocal lists locally originated actions the server dropped.
	DroppedLocal []action.ID
	// ToPeers carries hybrid-relay forwards: batches this client must
	// deliver directly to the named peers (Section VII hybrid mode).
	ToPeers []Reply
	// Violations records strict-mode protocol violations (reads of
	// never-delivered objects, undeclared accesses). Always empty when
	// the protocol machinery is sound — asserted by tests.
	Violations []string
}
