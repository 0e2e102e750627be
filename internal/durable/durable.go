// Package durable persists the authoritative world state — the
// durability half of Section II-B's requirement that "a protocol needs
// to be established between the clients and the server that ensures
// consistency and durability of data".
//
// The paper observes that persistent net-VEs keep the world in a
// database but, for throughput, "use commercial databases only to
// commit and read at periodic checkpoints" with an in-memory
// transaction layer in front (Section II). This package is that
// checkpoint layer, grown from a per-install redo log into a pipeline
// the engine feeds without ever waiting on a disk:
//
//   - The engine emits one commit record per install pass over the
//     core.Journal feed, plus the session opens and quarantine verdicts
//     that a restarted server cannot recompute. Replies are not
//     journaled: a recovered session's first resume is a snapshot. Each
//     record is encoded into a pooled wire buffer on the engine's
//     goroutine and ownership is handed to the committer over a bounded
//     channel — the engine's cost per record is an encode and a channel
//     send.
//   - A single committer goroutine appends every record to the current
//     generation's one segment, in the order the engine emitted it
//     (group commit: one Write for everything it finds queued when it
//     wakes), fsyncs under the configured policy, and applies every
//     record to a shadow replica of the engine (see shadow.go).
//   - Checkpoints are cut from the shadow at group boundaries — an
//     epoch-consistent image of the world, the watermarks, the sessions
//     and the verdicts, written entirely off the engine's hot path, the
//     committer going back to the queue between its waits on the disk —
//     and old generations are collected keep-then-gc: nothing is deleted
//     until its replacement is durably renamed into place, so a crash at
//     any point leaves a recoverable directory.
//   - Open refuses a directory an older store layout wrote, loads the
//     newest intact image, replays the segments from its generation on
//     through the committer's own apply (stopping at the first torn or
//     corrupt record), bumps the boot generation, cuts a fresh
//     checkpoint, and returns both the journal sink and a
//     core.RestoreState — crash-restart becomes "the server resumes
//     against itself".
package durable

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
	"seve/internal/world"
)

// FsyncPolicy selects when the committer forces the log to stable
// storage.
type FsyncPolicy uint8

const (
	// FsyncBatch fsyncs at every group boundary: one fsync per install
	// pass, the group-commit point. The default.
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval fsyncs on a timer (Options.FsyncEvery).
	FsyncInterval
	// FsyncCheckpoint fsyncs only at checkpoints, Sync and Close.
	FsyncCheckpoint
)

// DegradePolicy selects what happens when the committer cannot keep up
// (its queue is full) or its disk fails.
type DegradePolicy uint8

const (
	// DegradeBlock applies backpressure: journal calls block until the
	// committer drains, so the engine — and therefore every
	// acknowledgement it would send — stalls rather than let the log
	// fall silently behind. After an I/O error the store latches Err
	// and the transport stops acknowledging. The default.
	DegradeBlock DegradePolicy = iota
	// DegradeShed keeps the engine running and drops journal records,
	// counting them in Stats.ShedRecords. The first dropped commit
	// group leaves a permanent gap: the committer freezes the shadow
	// and cuts no further checkpoints, so recovery still yields a
	// faithful prefix.
	DegradeShed
)

// Options configures a Store.
type Options struct {
	Fsync      FsyncPolicy
	FsyncEvery time.Duration // FsyncInterval period; default 50ms
	// SnapshotEvery is the checkpoint period in installed serial
	// positions; default 4096.
	SnapshotEvery uint64
	Degrade       DegradePolicy
	// QueueLen bounds the committer queue in records; default 1024.
	QueueLen int
	// Deprecated: ResumeWindow is ignored. The store journals no reply
	// batches, so it keeps no resume window; the field stays only because
	// the repository benchmark still sets it.
	ResumeWindow int
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)

	// testGate, when non-nil, throttles the committer: it consumes one
	// token each time it is about to park. Tests use it to fill the
	// queue deterministically.
	testGate chan struct{}
	// testStep, when non-nil, is told each checkpoint step as it
	// finishes ("cut", "publish", "syncdir", "gc"), on the goroutine
	// cutting the checkpoint: Open's for the boot checkpoint, the
	// committer's after.
	testStep func(step string)
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 50 * time.Millisecond
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// GroupCommits counts install passes fully applied to the shadow
	// (the group-commit boundaries).
	GroupCommits int
	// Checkpoints counts the epoch images cut from the shadow.
	Checkpoints int
	// AppendErrors counts committer I/O failures; after the first the
	// store latches Err and stops writing.
	AppendErrors int
	// ShedRecords counts journal records dropped under DegradeShed.
	ShedRecords int
	// Emitted is the newest serial position the engine has fed;
	// Durable is the newest the committer has consumed. Their
	// difference is how far the log trails the engine.
	Emitted uint64
	Durable uint64
	// Gapped reports that a shed record left a permanent hole: the
	// shadow is frozen and no further checkpoints will be cut.
	Gapped bool
	// Records counts the records the committer took into the log, Writes
	// the write calls that carried them to the kernel and Fsyncs the
	// fsyncs of the segments (an image and the directory are not
	// counted): Records ÷ Writes is how well the committer groups, and an
	// interval tick costs at most one fsync.
	Records int
	Writes  int
	Fsyncs  int
	// BlockedNs is the time journal calls spent waiting for room in a
	// full committer queue — DegradeBlock backpressure, charged to the
	// engine.
	BlockedNs int64
}

// Store is the durability pipeline: the engine-facing half implements
// core.Journal, called on the engine's sequential entry points; the
// committer goroutine owns all file I/O. Open recovers, Close drains.
type Store struct {
	dir  string
	opts Options
	boot uint64

	jobs  chan job
	stopc chan struct{}

	emitted      atomic.Uint64
	durableSeq   atomic.Uint64
	groupCommits atomic.Int64
	checkpoints  atomic.Int64
	appendErrors atomic.Int64
	shedRecords  atomic.Int64
	records      atomic.Int64
	writes       atomic.Int64
	fsyncs       atomic.Int64
	blockedNs    atomic.Int64
	gapped       atomic.Bool
	errv         atomic.Value // error

	closeOnce sync.Once
	closeErr  error
	closed    chan struct{}
}

const (
	opAppend = iota
	opBarrier
	opCheckpoint
	opStop
)

type job struct {
	op int
	// buf is a framed record in a pooled buffer whose ownership transfers
	// with the job.
	buf  []byte
	done chan error
}

// Recovery is what Open reconstructed: the authoritative state at the
// durable install point (the caller seeds its engine with it) and the
// RestoreState to rewind the engine's watermarks and session table.
type Recovery struct {
	State   *world.State
	Restore core.RestoreState
}

// ErrClosed is returned by barriers against a closed store.
var ErrClosed = errors.New("durable: store closed")

// Open recovers dir and starts the committer. base, when non-nil, is
// the generated initial world: it seeds the shadow only when the
// directory holds no image yet (after the first Open the initial world
// is captured by the boot checkpoint and base is ignored). The returned
// Recovery carries everything the engine needs to resume against
// itself; pass the Store to Engine.SetJournal afterwards. A directory
// an older store layout wrote is refused before anything is written to
// it.
func Open(dir string, base *world.State, opts Options) (*Store, *Recovery, error) {
	s, c, rec, err := open(dir, base, opts)
	if err != nil {
		return nil, nil, err
	}
	go c.run()
	return s, rec, nil
}

// open is Open up to, and without, starting the committer goroutine.
func open(dir string, base *world.State, opts Options) (*Store, *committer, *Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("durable: creating %s: %w", dir, err)
	}
	sh, next, err := recoverDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if sh == nil {
		sh = newShadow()
		if base != nil {
			sh.state = base.Clone()
		}
	}
	sh.boot++
	s := &Store{
		dir:    dir,
		opts:   opts,
		boot:   sh.boot,
		jobs:   make(chan job, opts.QueueLen),
		stopc:  make(chan struct{}),
		closed: make(chan struct{}),
	}
	s.durableSeq.Store(sh.applied)
	s.emitted.Store(sh.applied)

	rec := &Recovery{
		State: sh.state.Clone(),
		Restore: core.RestoreState{
			UpTo:        sh.applied,
			NextBlind:   sh.nextBlind,
			Boot:        s.boot,
			SessionSeq:  sh.sessionSeq,
			Sessions:    sessionRecords(sh),
			Quarantined: quarantineRecords(sh),
		},
	}

	c := &committer{s: s, sh: sh, next: next, lastCkpt: sh.applied}
	// Boot checkpoint: the new boot generation (and, on first Open, the
	// base world) must be durable before the server acknowledges
	// anything minted under it.
	if err := c.checkpoint(); err != nil {
		c.closeFile()
		return nil, nil, nil, err
	}
	return s, c, rec, nil
}

// Boot reports the recovery generation this Open minted.
func (s *Store) Boot() uint64 { return s.boot }

// Err returns the committer's latched I/O error, if any. Once set the
// log has stopped growing; under DegradeBlock the transport reacts by
// refusing to acknowledge further work.
func (s *Store) Err() error {
	if e, ok := s.errv.Load().(error); ok {
		return e
	}
	return nil
}

// Degrade reports the configured degrade policy.
func (s *Store) Degrade() DegradePolicy { return s.opts.Degrade }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		GroupCommits: int(s.groupCommits.Load()),
		Checkpoints:  int(s.checkpoints.Load()),
		AppendErrors: int(s.appendErrors.Load()),
		ShedRecords:  int(s.shedRecords.Load()),
		Emitted:      s.emitted.Load(),
		Durable:      s.durableSeq.Load(),
		Gapped:       s.gapped.Load(),
		Records:      int(s.records.Load()),
		Writes:       int(s.writes.Load()),
		Fsyncs:       int(s.fsyncs.Load()),
		BlockedNs:    s.blockedNs.Load(),
	}
}

// Sync is the durability barrier: it blocks until every record sent
// before it is written and fsynced.
func (s *Store) Sync() error { return s.barrier(opBarrier) }

// Checkpoint forces an epoch checkpoint at the committer's current
// group boundary and blocks until it is published.
func (s *Store) Checkpoint() error { return s.barrier(opCheckpoint) }

func (s *Store) barrier(op int) error {
	done := make(chan error, 1)
	select {
	case s.jobs <- job{op: op, done: done}:
	case <-s.stopc:
		return ErrClosed
	}
	select {
	case err := <-done:
		return err
	case <-s.closed:
		return ErrClosed
	}
}

// Close drains the committer (final fsync plus, on a healthy store, a
// shutdown checkpoint) and closes the files. The engine must be
// quiesced first: journal calls racing Close are dropped.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		done := make(chan error, 1)
		select {
		case s.jobs <- job{op: opStop, done: done}:
			s.closeErr = <-done
		case <-s.closed:
		}
		close(s.stopc)
	})
	return s.closeErr
}

// send transfers one framed record to the committer. Under
// DegradeBlock a full queue applies backpressure to the caller (the
// engine stops, so nothing unjournaled gets acknowledged); under
// DegradeShed the record is dropped and counted.
func (s *Store) send(j job) {
	if s.opts.Degrade == DegradeShed {
		select {
		case s.jobs <- j:
		default:
			wire.PutBuf(j.buf)
			s.shedRecords.Add(1)
		}
		return
	}
	s.sendBlocking(j)
}

// sendBlocking queues j, waiting for room if the queue is full and
// booking the wait; a stopped store drops the record.
func (s *Store) sendBlocking(j job) {
	select {
	case s.jobs <- j:
		return
	default:
	}
	start := time.Now()
	select {
	case s.jobs <- j:
	case <-s.stopc:
		wire.PutBuf(j.buf)
	}
	s.blockedNs.Add(int64(time.Since(start)))
}

// CommitGroup implements core.Journal: one install pass becomes one
// commit record, encoded here on the engine goroutine into a pooled
// buffer whose ownership transfers to the committer with the send, so
// the committer takes a pass whole or (shed) not at all. The epoch is
// not journaled.
func (s *Store) CommitGroup(_ uint64, nextBlind uint32, recs []core.CommitRecord) {
	if len(recs) == 0 {
		return
	}
	s.emitted.Store(recs[len(recs)-1].Seq)
	s.send(job{op: opAppend, buf: appendCommitRecord(wire.GetBuf(64+len(recs)*48), nextBlind, recs)})
}

// SessionOpen implements core.Journal. Session records never shed:
// losing one would resurrect a previous registration's dedup floor
// (its stampFloor fence) on recovery, which could silently swallow a
// rejoined client's fresh submissions. They are rare — one per
// registration — so the blocking send is cheap even under DegradeShed.
func (s *Store) SessionOpen(id action.ClientID, token, mask, seqNo, stampFloor uint64) {
	buf := wire.GetBuf(64)
	buf = appendSessionRecord(buf, walSession{id: id, token: token, mask: mask, seqNo: seqNo, stampFloor: stampFloor})
	s.sendBlocking(job{op: opAppend, buf: buf})
}

// BatchRetained implements core.Journal and records nothing.
//
// Deprecated: the engine never calls it; replies are not journaled. It
// stays only because the repository benchmark's journal decorator still
// forwards it.
func (s *Store) BatchRetained(action.ClientID, *wire.Batch) {}

// ClientQuarantined implements core.QuarantineJournal. Verdicts never
// shed: losing one would let a quarantined cheater launder its ledger
// through a crash-restart. Like session records they are rare — at most
// one per client — so the blocking send is cheap even under
// DegradeShed. Every image bakes the verdicts in, so gc of the
// generation that first carried one cannot lose it.
func (s *Store) ClientQuarantined(id action.ClientID, reason uint8, seq uint64) {
	buf := wire.GetBuf(32)
	buf = appendQuarantineRecord(buf, walQuarantine{id: id, reason: reason, seq: seq})
	s.sendBlocking(job{op: opAppend, buf: buf})
}

var (
	_ core.Journal           = (*Store)(nil)
	_ core.QuarantineJournal = (*Store)(nil)
)

// sessionRecords converts the recovered shadow sessions into the
// engine's RestoreState form.
func sessionRecords(sh *shadow) []core.SessionRecord {
	if len(sh.sessions) == 0 {
		return nil
	}
	out := make([]core.SessionRecord, 0, len(sh.sessions))
	for id, sess := range sh.sessions {
		out = append(out, core.SessionRecord{
			ID:         id,
			Token:      sess.token,
			Mask:       sess.mask,
			SeqNo:      sess.seqNo,
			LastActSeq: sess.lastActSeq,
		})
	}
	return out
}

// quarantineRecords converts the recovered quarantine set into the
// engine's RestoreState form, ordered by client id for determinism.
func quarantineRecords(sh *shadow) []core.QuarantineRecord {
	if len(sh.quarantined) == 0 {
		return nil
	}
	out := make([]core.QuarantineRecord, 0, len(sh.quarantined))
	for _, q := range sh.quarantined {
		out = append(out, core.QuarantineRecord{ID: q.id, Reason: q.reason, Seq: q.seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
