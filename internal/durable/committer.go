package durable

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"seve/internal/action"
	"seve/internal/wire"
)

// segmentName names the commit log of the generation that starts at
// install point start. One file carries every lane's records: the lane
// is a field of the record and recovery merges by serial position, so
// the one goroutine that writes them gains nothing from a file per lane
// and pays an fsync for each.
func segmentName(start uint64) string {
	return fmt.Sprintf("wal-%020d.log", start)
}

// laneSegmentName is the per-lane segment name stores wrote before the
// lanes shared a file. Recovery still reads it and gc still collects it;
// nothing writes it any more.
func laneSegmentName(lane int32, start uint64) string {
	return fmt.Sprintf("wal-%d-%020d.log", lane, start)
}

func metaName(start uint64) string {
	return fmt.Sprintf("meta-%020d.log", start)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("snapshot-%020d.state", seq)
}

// writeBufCap bounds the records the committer gathers for one file
// before it must hand them to the kernel. Two of these are the store's
// whole standing write memory.
const writeBufCap = 32 << 10

// logFile is one append-only log with the records gathered for it since
// its last Write. The buffer outlives the file: a checkpoint closes f and
// the next record opens the new generation's.
type logFile struct {
	f     *os.File
	buf   []byte
	dirty bool // written to since the last fsync
}

// committer owns all file I/O and the shadow replica. One goroutine,
// fed by Store.jobs; records arrive pre-framed in pooled buffers whose
// ownership arrived with the job.
//
// It writes in groups. Each time it wakes it takes every job already
// queued, copying the records into the two files' write buffers while it
// replays them into the shadow, and issues one Write per file when the
// queue runs dry (or a buffer fills). The buffers are flushed before
// every fsync — so before every barrier, checkpoint and stop — and before
// the committer parks, so nothing waits in user space while it sleeps: a
// record is in the page cache by the end of the drain that consumed it
// and durable at the next fsync the policy schedules. On one processor
// the committer runs only when the engine blocks or is preempted; a
// syscall per record there is time taken from whoever runs next.
type committer struct {
	s  *Store
	sh *shadow

	// seg is the current generation's commit log, meta the meta lineage's
	// append handle.
	seg, meta logFile
	// segStart names the current segment generation; lastCkpt is the
	// install point of the last checkpoint.
	segStart uint64
	lastCkpt uint64

	// group assembles an install pass from its lanes' records, to be
	// applied to the shadow as one unit (the group commit). arena is the
	// storage its decoded writes share. Both are scratch, reused from
	// pass to pass.
	group []walEntry
	arena writeArena

	// cutting is set while a checkpoint is under way. A checkpoint is a
	// chain of slow calls, and between them it goes back to the queue
	// (catchUp). metaTail, non-nil from the cut of the images until the
	// new lineage is published, gathers the meta records taken in that
	// stretch: the new lineage must carry them behind its image. held is
	// the job that ended the catching up — a barrier, checkpoint or stop,
	// answered once the checkpoint is done.
	cutting  bool
	metaTail []byte
	held     *job

	failed bool
	gapped bool
}

func (c *committer) run() {
	defer close(c.s.closed)
	var tick <-chan time.Time
	if c.s.opts.Fsync == FsyncInterval {
		t := time.NewTicker(c.s.opts.FsyncEvery)
		defer t.Stop()
		tick = t.C
	}
	gate := c.s.opts.testGate
	for {
		if gate != nil {
			<-gate
		}
		// Parked: the last drain left the write buffers empty.
		select {
		case j := <-c.s.jobs:
			if c.handle(j) {
				return
			}
		case <-tick:
			c.fsyncDirty()
		}
		if c.drain(tick) {
			return
		}
	}
}

// drain takes every job already queued without parking, then hands the
// kernel what they left in the write buffers. It reports whether a stop
// job ended the committer.
func (c *committer) drain(tick <-chan time.Time) (stopped bool) {
	for {
		select {
		case j := <-c.s.jobs:
			if c.handle(j) {
				return true
			}
		case <-tick:
			c.fsyncDirty()
		default:
			c.flush()
			return false
		}
	}
}

// handle runs one job and reports whether it was the stop.
func (c *committer) handle(j job) (stop bool) {
	switch j.op {
	case opAppend:
		c.append(j)
	case opBarrier:
		j.done <- c.barrier()
	case opCheckpoint:
		j.done <- c.forcedCheckpoint()
	case opStop:
		j.done <- c.shutdown()
		return true
	}
	if h := c.held; h != nil {
		c.held = nil
		return c.handle(*h)
	}
	return false
}

func (c *committer) fail(err error) {
	c.s.appendErrors.Add(1)
	if !c.failed {
		c.failed = true
		c.s.errv.Store(err)
		c.s.opts.Logf("durable: committer failed, log frozen: %v", err)
	}
}

// log returns the file a lane's records go to, opened.
func (c *committer) log(lane int32) (*logFile, error) {
	l := &c.seg
	if lane == laneMeta {
		l = &c.meta
	}
	if l.f != nil {
		return l, nil
	}
	name := segmentName(c.segStart)
	if lane == laneMeta {
		name = metaName(c.lastCkpt)
	}
	f, err := os.OpenFile(filepath.Join(c.s.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: opening %s: %w", name, err)
	}
	l.f = f
	return l, nil
}

// gather copies one framed record into its file's write buffer, writing
// the buffer out first when the record would not fit. The copy is what
// lets the caller return rec to the pool.
func (c *committer) gather(lane int32, rec []byte) error {
	l, err := c.log(lane)
	if err != nil {
		return err
	}
	if len(l.buf)+len(rec) > writeBufCap {
		if err := c.write(l); err != nil {
			return err
		}
	}
	if l.buf == nil {
		l.buf = make([]byte, 0, writeBufCap)
	}
	l.buf = append(l.buf, rec...)
	if len(l.buf) > writeBufCap {
		// A record larger than the buffer grew it; write it through and
		// go back to the standing size.
		err = c.write(l)
		l.buf = nil
	}
	return err
}

// write hands l's gathered records to the kernel in one Write.
func (c *committer) write(l *logFile) error {
	if len(l.buf) == 0 {
		return nil
	}
	_, err := l.f.Write(l.buf)
	l.buf = l.buf[:0]
	l.dirty = true
	c.s.writes.Add(1)
	return err
}

// writeOut is write for the callers that do not report to append: it
// latches the error itself, and once the log is frozen drops what was
// gathered instead.
func (c *committer) writeOut(l *logFile) error {
	if c.failed {
		l.buf = l.buf[:0]
		return c.s.Err()
	}
	err := c.write(l)
	if err != nil {
		c.fail(err)
	}
	return err
}

// flush writes out both buffers.
func (c *committer) flush() {
	c.writeOut(&c.seg)
	c.writeOut(&c.meta)
}

// append gathers one record for its file and replays it into the
// shadow. The committer is a single goroutine that owns the log — a
// sequential any-lane context, like the engine's merge passes.
func (c *committer) append(j job) {
	defer wire.PutBuf(j.buf)
	body := j.buf[frameHdrLen:]
	kind := body[0]
	if c.failed || (c.gapped && kind == recCommit) {
		// A frozen log must stay a faithful prefix of the feed; writing
		// anything past the freeze point would only mislead recovery.
		return
	}
	if err := c.gather(j.lane, j.buf); err != nil {
		c.fail(err)
		return
	}
	if c.metaTail != nil && j.lane == laneMeta {
		c.metaTail = append(c.metaTail, j.buf...)
	}
	switch kind {
	case recCommit:
		c.commitGroup(j.buf)
	case recSession:
		c.s.records.Add(1)
		if rec, _, derr := decodeSessionFields(body, 1); derr == nil {
			c.sh.open(rec)
		}
	case recQuarantine:
		c.s.records.Add(1)
		if rec, derr := decodeQuarantineRecord(body); derr == nil {
			c.sh.quarantine(rec)
		}
	}
	if !c.cutting && !c.failed && !c.gapped && c.sh.applied-c.lastCkpt >= c.s.opts.SnapshotEvery {
		if err := c.checkpoint(); err != nil {
			c.s.opts.Logf("durable: checkpoint: %v", err)
		}
	}
}

// commitGroup replays one install pass — its lanes' records, framed back
// to back in buf — into the shadow. The assembled entries must continue
// the shadow exactly (the per-lane records merge back into a contiguous
// serial run). A hole means a shed pass — the shadow freezes so no
// checkpoint can ever claim coverage past it.
func (c *committer) commitGroup(buf []byte) {
	defer func() {
		c.group = c.group[:0]
		c.arena.reset()
	}()
	var nextBlind uint32
	for len(buf) > 0 {
		n := frameHdrLen
		if len(buf) >= frameHdrLen {
			n += int(binary.LittleEndian.Uint32(buf))
		}
		if n > len(buf) {
			c.fail(io.ErrUnexpectedEOF) // our own framing: a bug, freeze loudly
			return
		}
		g, err := decodeCommitRecord(buf[frameHdrLen:n], &c.arena, c.group)
		if err != nil {
			c.fail(err) // our own encoding failed to decode: likewise
			return
		}
		c.group, nextBlind = g.entries, max(nextBlind, g.nextBlind)
		c.s.records.Add(1)
		buf = buf[n:]
	}
	if len(c.group) == 0 {
		return
	}
	slices.SortFunc(c.group, func(a, b walEntry) int { return cmp.Compare(a.seq, b.seq) })
	want := c.sh.applied + 1
	for _, e := range c.group {
		if e.seq != want {
			c.gapped = true
			c.s.gapped.Store(true)
			c.s.opts.Logf("durable: journal gap at seq %d (expected %d); shadow frozen, checkpoints disabled", e.seq, want)
			return
		}
		want++
	}
	for _, e := range c.group {
		c.sh.applyEntry(e)
	}
	c.sh.nextBlind = max(c.sh.nextBlind, nextBlind)
	c.s.durableSeq.Store(c.sh.applied)
	if c.s.opts.Fsync == FsyncBatch {
		c.fsyncDirty()
	}
	c.s.groupCommits.Add(1)
}

// barrier is the Sync implementation: flush everything written so far.
func (c *committer) barrier() error {
	if err := c.fsyncDirty(); err != nil {
		return err
	}
	return c.s.Err()
}

// fsyncDirty forces both files to stable storage.
func (c *committer) fsyncDirty() error {
	for _, l := range [...]*logFile{&c.seg, &c.meta} {
		if err := c.sync(l); err != nil {
			return err
		}
	}
	return nil
}

// sync forces l to stable storage: whatever is still gathered for it is
// written out first, then, if it was written to since its last fsync, it
// is fsynced.
func (c *committer) sync(l *logFile) error {
	if err := c.writeOut(l); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	c.s.fsyncs.Add(1)
	if err := l.f.Sync(); err != nil {
		c.fail(err)
		return err
	}
	l.dirty = false
	return nil
}

func (c *committer) forcedCheckpoint() error {
	if c.failed {
		return c.s.Err()
	}
	if c.gapped {
		return fmt.Errorf("durable: journal gapped; checkpoint would claim coverage it does not have")
	}
	return c.checkpoint()
}

// checkpoint cuts an epoch snapshot from the shadow at its current
// group boundary, rolls the segments, rewrites the meta lineage, and
// collects old generations — strictly in that order (keep-then-gc):
// nothing is deleted until its replacement is durably renamed, so a
// crash between any two steps leaves the previous generation intact
// and recovery simply picks the newest pair that survived. A rename is
// durable once its directory is: the directory is fsynced between the
// publish and the gc, or a power cut could keep the unlinks and lose
// the renames.
//
// It is half a dozen waits on the disk, and on one processor each costs
// the committer its turn for a scheduling period during which the engine
// queues a few hundred records more. So the images are cut in memory and
// the generation rolled first, where the shadow stands, and between the
// waits that follow the committer goes back to the queue (catchUp); done
// in one stretch, a checkpoint outlasts the queue and the engine spends
// the rest of it waiting in send. What is taken there lands behind the
// images: commit records in the new generation's segment, meta records
// in the old lineage as they come and again, as one piece with the image,
// in the new.
func (c *committer) checkpoint() error {
	c.cutting = true
	defer func() { c.cutting, c.metaTail = false, nil }()

	seq := c.sh.applied
	snapshot, meta := encodeSnapshot(seq, c.sh.state), c.metaImage(seq)
	// Roll the segment generation: the next commit record opens
	// wal-<seq>.log. From here the shadow may run ahead of the images.
	if err := c.writeOut(&c.seg); err != nil {
		return err
	}
	old := c.seg
	c.seg = logFile{buf: old.buf}
	c.segStart = seq
	c.metaTail = []byte{}
	c.step("cut")

	// The log must be durable up to the point the snapshot claims before
	// the snapshot is: under the interval and checkpoint fsync policies
	// this is where those bytes hit stable storage.
	if old.f != nil {
		var err error
		if old.dirty {
			c.s.fsyncs.Add(1)
			err = old.f.Sync()
		}
		old.f.Close()
		if err != nil {
			c.fail(err)
			return err
		}
	}
	c.catchUp()
	if err := c.sync(&c.meta); err != nil {
		return err
	}

	if err := c.publish(seq, snapshot, meta); err != nil {
		c.fail(err)
		return err
	}
	c.step("publish")
	c.catchUp()
	if err := syncDir(c.s.dir); err != nil {
		c.fail(err)
		return err
	}
	c.step("syncdir")
	c.catchUp()
	c.gc()
	c.step("gc")
	c.s.checkpoints.Add(1)
	return c.s.Err()
}

// catchUp takes the records queued while the checkpoint waited on the
// disk, a queueful at most. Any other job ends it for this checkpoint and
// is held until the checkpoint is done, so jobs are still answered in the
// order they were sent.
func (c *committer) catchUp() {
	for n := cap(c.s.jobs); n > 0 && c.held == nil; n-- {
		select {
		case j := <-c.s.jobs:
			if j.op != opAppend {
				c.held = &j
				return
			}
			c.append(j)
		default:
			return
		}
	}
}

// step reports a finished checkpoint step to the test hook.
func (c *committer) step(name string) {
	if c.s.opts.testStep != nil {
		c.s.opts.testStep(name)
	}
}

// metaImage bakes the meta lineage that starts at install point seq:
// watermarks, every session with its current floors, and the quarantine
// verdicts, which re-bake into every lineage so they survive gc of the
// generation that first carried them. Every record in it has a fixed
// size, so the image is sized before it is built.
func (c *committer) metaImage(seq uint64) []byte {
	ids := make([]int32, 0, len(c.sh.sessions))
	for id := range c.sh.sessions {
		ids = append(ids, int32(id))
	}
	slices.Sort(ids)
	meta := make([]byte, 0, metaHdrLen+len(ids)*metaSessLen+len(c.sh.quarantined)*quarantineRecLen)
	meta = appendMetaHdr(meta, walMetaHdr{
		boot:       c.s.boot,
		nextBlind:  c.sh.nextBlind,
		sessionSeq: c.sh.sessionSeq,
		upTo:       seq,
	})
	for _, id := range ids {
		sess := c.sh.sessions[action.ClientID(id)]
		meta = appendMetaSess(meta, sess.walSession, sess.lastActSeq)
	}
	qids := make([]int32, 0, len(c.sh.quarantined))
	for id := range c.sh.quarantined {
		qids = append(qids, int32(id))
	}
	slices.Sort(qids)
	for _, id := range qids {
		meta = appendQuarantineRecord(meta, c.sh.quarantined[action.ClientID(id)])
	}
	return meta
}

// publish writes the two images, each temp + fsync + rename (the seed's
// atomic-publish shape), going back to the queue in between. The meta
// records taken since the cut follow the meta image in the same file and
// the same fsync, so the new lineage never lacks a record the old one
// holds; from the rename on, meta records append to the new file.
func (c *committer) publish(seq uint64, snapshot, meta []byte) error {
	c.catchUp()
	if err := writeDurably(filepath.Join(c.s.dir, snapshotName(seq)), snapshot); err != nil {
		return err
	}
	c.step("snapshot")
	c.catchUp()
	// The old lineage gets what is still gathered for it, then closes.
	if err := c.writeOut(&c.meta); err != nil {
		return err
	}
	c.meta.close()
	if err := writeDurably(filepath.Join(c.s.dir, metaName(seq)), meta, c.metaTail); err != nil {
		return err
	}
	c.lastCkpt = seq
	c.metaTail = nil // the records taken from here on go to the new file alone
	return nil
}

func (l *logFile) close() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.dirty = false
}

// gc removes generations superseded twice over: the newest snapshot
// pair is live, the previous one is kept as the fallback should the
// newest turn out unreadable, and everything older goes. Runs only
// after publish succeeded and the directory holding its renames was
// synced — the keep half of keep-then-gc.
func (c *committer) gc() {
	snaps, metas, segs := scanDir(c.s.dir)
	if len(snaps) < 2 {
		return
	}
	keep := snaps[len(snaps)-2] // second-newest generation start
	for _, s := range snaps {
		if s < keep {
			os.Remove(filepath.Join(c.s.dir, snapshotName(s)))
		}
	}
	for _, m := range metas {
		if m < keep {
			os.Remove(filepath.Join(c.s.dir, metaName(m)))
		}
	}
	for _, sg := range segs {
		if sg.start < keep {
			os.Remove(filepath.Join(c.s.dir, sg.name))
		}
	}
}

// shutdown drains the store on Close: a final fsync plus, on a healthy
// store, a shutdown checkpoint so a clean restart resumes from an
// exact image (sessions and floors included).
func (c *committer) shutdown() error {
	if !c.failed {
		if c.gapped {
			c.fsyncDirty()
		} else if err := c.checkpoint(); err != nil {
			c.s.opts.Logf("durable: shutdown checkpoint: %v", err)
		}
	}
	c.closeFiles()
	return c.s.Err()
}

func (c *committer) closeFiles() {
	c.seg.close()
	c.meta.close()
}

// writeDurably publishes content at path atomically: temp file, fsync,
// rename. The rename itself is durable once the directory is synced.
func writeDurably(path string, content ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, part := range content {
		if _, err := f.Write(part); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs a directory, making the renames and creations in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("durable: syncing %s: %w", dir, err)
	}
	return d.Close()
}
