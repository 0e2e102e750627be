package metrics

// ClientStats is a snapshot of a client engine's cumulative counters:
// the Algorithm 1/3/4 protocol totals (reconciliations, remote and
// blind applications) plus the delivery-path internals added with the
// incremental reconciliation work (divergence-set rollback copies,
// buffered out-of-order batches, overflow drops). Produced by
// core.Client.Metrics and read by `go run ./bench -trace 1`; Merge
// aggregates a fleet.
type ClientStats struct {
	// Protocol totals.
	Reconciliations int
	AppliedRemote   int
	AppliedBlind    int
	QueueLen        int

	// Batch-order restoration.
	BufferedBatches int
	DroppedBatches  int

	// Incremental reconciliation (Algorithm 3) internals.
	ReconcileCopies int
	DivergedObjects int
	InternedObjects int

	// Stable-store footprint.
	StableVersions int
	PrunedBelow    uint64

	// Session resume. Resumes counts accepted CatchUps (ResumesSnapshot
	// of them rebuilt the state from the snapshot payload); StaleBatches
	// counts already-applied batches dropped after a resume overlap;
	// OwnRedelivered counts own actions re-delivered by a post-snapshot
	// closure after they had already committed. ReconnectAttempts counts
	// transport-level dials (folded in by transport.Client.Metrics; zero
	// under the simulator glue).
	Resumes           int
	ResumesSnapshot   int
	StaleBatches      int
	OwnRedelivered    int
	ReconnectAttempts int

	// Superseding delivery queue (DESIGN.md §13), observed from the
	// client's side of the stream. Coalesced counts merged batches
	// applied (CoversFrom < ClientSeq); Superseded counts the individual
	// batch sequence numbers whose frames never arrived because a merge
	// or snapshot replaced them; SnapshotFallbacks counts mid-session
	// catch-ups accepted while the connection stayed up (folded in by
	// transport.Client.Metrics; zero under the simulator glue).
	Coalesced         int
	Superseded        int
	SnapshotFallbacks int
}

// Merge accumulates o into st. Gauges (queue length, buffered batches,
// diverged/interned objects, stable versions) sum across clients;
// PrunedBelow keeps the furthest point.
func (st *ClientStats) Merge(o ClientStats) {
	st.Reconciliations += o.Reconciliations
	st.AppliedRemote += o.AppliedRemote
	st.AppliedBlind += o.AppliedBlind
	st.QueueLen += o.QueueLen
	st.BufferedBatches += o.BufferedBatches
	st.DroppedBatches += o.DroppedBatches
	st.ReconcileCopies += o.ReconcileCopies
	st.DivergedObjects += o.DivergedObjects
	st.InternedObjects += o.InternedObjects
	st.StableVersions += o.StableVersions
	if o.PrunedBelow > st.PrunedBelow {
		st.PrunedBelow = o.PrunedBelow
	}
	st.Resumes += o.Resumes
	st.ResumesSnapshot += o.ResumesSnapshot
	st.StaleBatches += o.StaleBatches
	st.OwnRedelivered += o.OwnRedelivered
	st.ReconnectAttempts += o.ReconnectAttempts
	st.Coalesced += o.Coalesced
	st.Superseded += o.Superseded
	st.SnapshotFallbacks += o.SnapshotFallbacks
}
