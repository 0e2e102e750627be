package metrics

import "fmt"

// ServerStats is a snapshot of the server engine's cumulative counters:
// the protocol totals the paper reports (submissions, drops,
// completions) plus the analysis-engine internals (conflict-index hit
// rates, scan savings, compactions, push scheduler activity) that back
// the DESIGN.md performance claims. Produced by core.Server.Metrics and
// surfaced by cmd/seve-server on shutdown and by `go run ./bench -trace 1`.
type ServerStats struct {
	// Protocol totals.
	TotalSubmitted   int
	TotalDropped     int
	CompletionsTaken int
	Installed        uint64
	QueueLen         int

	// Analysis-walk accounting. TotalQueueScans counts queue entries the
	// Algorithm 6/7 walks actually examined; ScanSavedEntries counts the
	// entries a full-queue walk would have examined on top of that (the
	// conflict index's savings).
	TotalQueueScans  int
	ScanSavedEntries int
	IndexLookups     int

	// Memory-bound maintenance.
	QueueCompactions  int
	WriterCompactions int
	InternedObjects   int
	TrackedClients    int

	// First Bound push scheduler. PushTests counts the Equation (1)
	// eligibility tests run; PushGridLookups counts the per-client
	// candidate queries the entry grid answered (the rest scanned the
	// whole window).
	PushTicks         int
	PushParallelTicks int
	PushTests         int
	PushGridLookups   int

	// Session resume (Config.ResumeWindow). ResumesSuffix counts
	// reconnects served by replaying the retained batch suffix;
	// ResumesSnapshot counts degradations to the full blind-write
	// snapshot; ResumesRejected counts unknown or stale tokens.
	// DuplicateSubmits counts re-submissions swallowed by the session's
	// action high-water mark; RetainedBatches gauges the batches
	// currently held across all session windows.
	ResumesSuffix    int
	ResumesSnapshot  int
	ResumesRejected  int
	DuplicateSubmits int
	RetainedBatches  int

	// Crash-restart recovery (DESIGN.md §15). ResumesRecovered counts
	// reconnects answered out of a journal-rebuilt session (always by
	// snapshot);
	// StaleCompletions counts completion claims fenced because they
	// referenced a serial position the engine has not stamped — the
	// signature of a client acking state a crash rolled back.
	ResumesRecovered int
	StaleCompletions int

	// Durability pipeline (package durable). WALGroupCommits counts
	// journal groups fsync-acknowledged; WALCheckpoints counts epoch
	// snapshots cut by the committer. WALAppendErrors counts I/O failures
	// in the committer (after the first, behavior follows the degrade
	// policy); WALShedRecords counts journal records dropped because the
	// committer queue was full under DegradeShed — both mean the log is
	// no longer a faithful prefix of the engine. WALBehindSeq gauges how
	// far the durable install point trails the engine's (0 = fully
	// caught up at snapshot time). WALRecords ÷ WALWrites is how many
	// records the committer carries to the kernel per write call,
	// WALFsyncs counts fsyncs of the log files, and WALBlockedNs is the
	// time the engine waited for room in a full committer queue.
	WALGroupCommits int
	WALCheckpoints  int
	WALAppendErrors int
	WALShedRecords  int
	WALBehindSeq    uint64
	WALRecords      int
	WALWrites       int
	WALFsyncs       int
	WALBlockedNs    int64

	// Transport delivery. WriteQueueDrops counts replies discarded
	// because the recipient's write queue was full (a client too slow to
	// drain its connection). PoolOutstanding gauges the process's pooled
	// buffers and frames not yet back in wire's pool (wire.Outstanding):
	// frames queued for clients and records on their way to the journal.
	// It reads zero on a drained, idle server; one that only grows is a
	// leak. Maintained by the transport layer, not the engine; zero under
	// the simulator.
	WriteQueueDrops int
	PoolOutstanding int

	// Superseding delivery queue (DESIGN.md §13). FramesSuperseded counts
	// queued frames released because a newer frame replaced their content
	// in place; FramesCoalesced counts in-queue merges of contiguous
	// batches; SnapshotFallbacks counts mid-session blind-write catch-ups
	// issued when an overflowing queue could not be superseded safely.
	// MaxStaleObjects gauges the largest covered-object footprint any
	// client's queue accumulated while stale. The first two and the gauge
	// are transport-maintained; SnapshotFallbacks is counted by the
	// engine (it issues the Algorithm 6 rebuild).
	FramesSuperseded  int
	FramesCoalesced   int
	SnapshotFallbacks int
	MaxStaleObjects   int

	// Semantic integrity enforcement (internal/integrity, DESIGN.md
	// §16). ContractBreaches counts completions for actions whose
	// declared sets broke WS ⊆ RS; ForgedCompletions counts reported
	// writes outside the declared write set; AuditsRun counts sampled
	// (or repair-forced) re-executions against ζS, AuditDivergences the
	// ones that disagreed with the report, and RepairedResults the
	// positions installed from the server's own evaluation instead of
	// the forged report. QuarantinedClients counts verdicts issued;
	// QuarantineRejected counts submissions/completions refused from
	// already-quarantined clients. RateLimited, WriteSetViolations, and
	// RadiusViolations count influence-bound rejections.
	// OrphanCompletions counts positions a quarantined origin abandoned
	// that the server completed itself so the queue never wedges. An
	// honest fleet reports zero everywhere except AuditsRun.
	ContractBreaches   int
	ForgedCompletions  int
	AuditsRun          int
	AuditDivergences   int
	RepairedResults    int
	QuarantinedClients int
	QuarantineRejected int
	OrphanCompletions  int
	RateLimited        int
	WriteSetViolations int
	RadiusViolations   int
}

// Table renders the snapshot as a two-column table.
func (st ServerStats) Table() *Table {
	t := &Table{Title: "server engine counters", Header: []string{"counter", "value"}}
	row := func(name string, v interface{}) { t.AddRow(name, fmt.Sprint(v)) }
	row("submitted", st.TotalSubmitted)
	row("dropped", st.TotalDropped)
	row("completions taken", st.CompletionsTaken)
	row("installed", st.Installed)
	row("queue length", st.QueueLen)
	row("queue entries scanned", st.TotalQueueScans)
	row("scans saved by index", st.ScanSavedEntries)
	row("index lookups", st.IndexLookups)
	row("queue compactions", st.QueueCompactions)
	row("writer compactions", st.WriterCompactions)
	row("interned objects", st.InternedObjects)
	row("tracked clients", st.TrackedClients)
	row("push ticks", st.PushTicks)
	row("parallel push ticks", st.PushParallelTicks)
	row("push eligibility tests", st.PushTests)
	row("push grid lookups", st.PushGridLookups)
	row("resumes (suffix replay)", st.ResumesSuffix)
	row("resumes (snapshot fallback)", st.ResumesSnapshot)
	row("resumes rejected", st.ResumesRejected)
	row("duplicate submits swallowed", st.DuplicateSubmits)
	row("retained batches", st.RetainedBatches)
	row("resumes (recovered session)", st.ResumesRecovered)
	row("stale completions fenced", st.StaleCompletions)
	row("wal group commits", st.WALGroupCommits)
	row("wal checkpoints", st.WALCheckpoints)
	row("wal append errors", st.WALAppendErrors)
	row("wal shed records", st.WALShedRecords)
	row("wal behind (seqs)", st.WALBehindSeq)
	row("wal records", st.WALRecords)
	row("wal writes", st.WALWrites)
	row("wal fsyncs", st.WALFsyncs)
	row("wal engine blocked (ns)", st.WALBlockedNs)
	row("write queue drops", st.WriteQueueDrops)
	row("pooled buffers+frames outstanding", st.PoolOutstanding)
	row("frames superseded", st.FramesSuperseded)
	row("frames coalesced", st.FramesCoalesced)
	row("snapshot fallbacks", st.SnapshotFallbacks)
	row("max stale objects", st.MaxStaleObjects)
	row("contract breaches", st.ContractBreaches)
	row("forged completions", st.ForgedCompletions)
	row("audits run", st.AuditsRun)
	row("audit divergences", st.AuditDivergences)
	row("repaired results", st.RepairedResults)
	row("quarantined clients", st.QuarantinedClients)
	row("quarantine rejected", st.QuarantineRejected)
	row("orphan completions", st.OrphanCompletions)
	row("rate limited", st.RateLimited)
	row("write-set violations", st.WriteSetViolations)
	row("radius violations", st.RadiusViolations)
	return t
}

// String renders the snapshot via Table.
func (st ServerStats) String() string { return st.Table().String() }
