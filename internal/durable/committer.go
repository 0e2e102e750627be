package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"seve/internal/wire"
)

// writeBufCap bounds the records the committer gathers before it must
// hand them to the kernel: the store's whole standing write memory.
const writeBufCap = 32 << 10

// logFile is the current generation's segment with the records gathered
// for it since its last Write. The buffer outlives the file: a checkpoint
// closes f and carries the buffer over to the next generation's.
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
// queued, copying the records into the segment's write buffer while it
// applies them to the shadow, and issues one Write when the queue runs
// dry (or the buffer fills). The buffer is flushed before every fsync —
// so before every barrier, checkpoint and stop — and before the
// committer parks, so nothing waits in user space while it sleeps: a
// record is in the page cache by the end of the drain that consumed it
// and durable at the next fsync the policy schedules. On one processor
// the committer runs only when the engine blocks or is preempted; a
// syscall per record there is time taken from whoever runs next.
type committer struct {
	s  *Store
	sh *shadow

	seg logFile
	// next is the generation the next checkpoint cuts; lastCkpt is the
	// install point of the last cut.
	next     uint64
	lastCkpt uint64

	// cutting is set while a checkpoint is under way. A checkpoint is a
	// chain of slow calls, and between them it goes back to the queue
	// (catchUp). held is the job that ended the catching up — a barrier,
	// checkpoint or stop, answered once the checkpoint is done.
	cutting bool
	held    *job

	failed bool
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
		// Parked: the last drain left the write buffer empty.
		select {
		case j := <-c.s.jobs:
			if c.handle(j) {
				return
			}
		case <-tick:
			c.sync()
		}
		if c.drain(tick) {
			return
		}
	}
}

// drain takes every job already queued without parking, then hands the
// kernel what they left in the write buffer. It reports whether a stop
// job ended the committer.
func (c *committer) drain(tick <-chan time.Time) (stopped bool) {
	for {
		select {
		case j := <-c.s.jobs:
			if c.handle(j) {
				return true
			}
		case <-tick:
			c.sync()
		default:
			c.writeOut()
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

// gather copies one framed record into the write buffer, writing the
// buffer out first when the record would not fit. The copy is what lets
// the caller return rec to the pool.
func (c *committer) gather(rec []byte) error {
	l := &c.seg
	if len(l.buf)+len(rec) > writeBufCap {
		if err := c.write(); err != nil {
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
		err := c.write()
		l.buf = nil
		return err
	}
	return nil
}

// write hands the gathered records to the kernel in one Write.
func (c *committer) write() error {
	l := &c.seg
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
func (c *committer) writeOut() error {
	if c.failed {
		c.seg.buf = c.seg.buf[:0]
		return c.s.Err()
	}
	err := c.write()
	if err != nil {
		c.fail(err)
	}
	return err
}

// append gathers one record and applies it to the shadow. The committer
// is a single goroutine that owns the log — a sequential any-lane
// context, like the engine's merge passes.
func (c *committer) append(j job) {
	defer wire.PutBuf(j.buf)
	body := j.buf[frameHdrLen:]
	if c.failed || (c.sh.gapped && body[0] == recCommit) {
		// A frozen log must stay a faithful prefix of the feed; writing
		// anything past the freeze point would only mislead recovery.
		return
	}
	if err := c.gather(j.buf); err != nil {
		c.fail(err)
		return
	}
	c.s.records.Add(1)
	installed, err := c.sh.apply(body)
	switch {
	case err != nil:
		c.fail(err) // our own encoding failed to decode: a bug, freeze loudly
		return
	case installed:
		c.s.durableSeq.Store(c.sh.applied)
		if c.s.opts.Fsync == FsyncBatch {
			c.sync()
		}
		c.s.groupCommits.Add(1)
	case c.sh.gapped && !c.s.gapped.Load():
		c.s.gapped.Store(true)
		c.s.opts.Logf("durable: journal gap after seq %d; shadow frozen, checkpoints disabled", c.sh.applied)
	}
	if !c.cutting && !c.failed && !c.sh.gapped && c.sh.applied-c.lastCkpt >= c.s.opts.SnapshotEvery {
		if err := c.checkpoint(); err != nil {
			c.s.opts.Logf("durable: checkpoint: %v", err)
		}
	}
}

// barrier is the Sync implementation: flush everything written so far.
func (c *committer) barrier() error {
	if err := c.sync(); err != nil {
		return err
	}
	return c.s.Err()
}

// sync forces the segment to stable storage: whatever is still gathered
// is written out first, then, if the file was written to since its last
// fsync, it is fsynced.
func (c *committer) sync() error {
	if err := c.writeOut(); err != nil {
		return err
	}
	if !c.seg.dirty {
		return nil
	}
	c.s.fsyncs.Add(1)
	if err := c.seg.f.Sync(); err != nil {
		c.fail(err)
		return err
	}
	c.seg.dirty = false
	return nil
}

func (c *committer) forcedCheckpoint() error {
	if c.failed {
		return c.s.Err()
	}
	if c.sh.gapped {
		return fmt.Errorf("durable: journal gapped; checkpoint would claim coverage it does not have")
	}
	return c.checkpoint()
}

// checkpoint cuts an image from the shadow at its current group
// boundary, rolls the generation, publishes the image and collects old
// generations — strictly in that order (keep-then-gc): nothing is
// deleted until its replacement is durably renamed, so a crash between
// any two steps leaves the previous generation intact and recovery
// simply picks the newest image that survived. A rename is durable once
// its directory is: the directory is fsynced between the publish and
// the gc, or a power cut could keep the unlinks and lose the renames.
//
// It is a handful of waits on the disk, and on one processor each costs
// the committer its turn for a scheduling period during which the engine
// queues a few hundred records more. So the image is cut in memory and
// the generation rolled first, where the shadow stands, and between the
// waits that follow the committer goes back to the queue (catchUp); done
// in one stretch, a checkpoint outlasts the queue and the engine spends
// the rest of it waiting in send. What is taken there lands in the new
// generation's segment, behind the image.
func (c *committer) checkpoint() error {
	c.cutting = true
	defer func() { c.cutting = false }()

	image, gen := c.sh.image(), c.next
	// Roll the generation. Its segment is created here, and never by
	// anyone before: a name no file in the directory held when the store
	// opened, and none of its checkpoints has cut.
	if err := c.writeOut(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(c.s.dir, segmentName(gen)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		c.fail(err)
		return err
	}
	old := c.seg
	c.seg = logFile{f: f, buf: old.buf}
	c.next, c.lastCkpt = gen+1, c.sh.applied
	c.step("cut")

	// The log must be durable up to the point the image claims before the
	// image is: under the interval and checkpoint fsync policies this is
	// where those bytes hit stable storage.
	if old.f != nil {
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
	if err := writeDurably(filepath.Join(c.s.dir, snapshotName(gen)), image); err != nil {
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
// disk, a queueful at most, and like a drain hands the kernel what they
// left in the write buffer: the wait that follows is as long as a park.
// Any other job ends it for this checkpoint and is held until the
// checkpoint is done, so jobs are still answered in the order they were
// sent.
func (c *committer) catchUp() {
	defer c.writeOut()
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

// gc removes generations superseded twice over: the newest image is
// live, the previous one is kept as the fallback should the newest turn
// out unreadable, and everything older goes. Runs only after the publish
// succeeded and the directory holding its rename was synced — the keep
// half of keep-then-gc.
func (c *committer) gc() {
	snaps, segs, err := scanDir(c.s.dir)
	if err != nil || len(snaps) < 2 {
		return
	}
	keep := snaps[len(snaps)-2]
	for _, g := range snaps {
		if g < keep {
			os.Remove(filepath.Join(c.s.dir, snapshotName(g)))
		}
	}
	for _, g := range segs {
		if g < keep {
			os.Remove(filepath.Join(c.s.dir, segmentName(g)))
		}
	}
}

// shutdown drains the store on Close: a final fsync plus, on a healthy
// store, a shutdown checkpoint so a clean restart resumes from an
// exact image (sessions and floors included).
func (c *committer) shutdown() error {
	if !c.failed {
		if c.sh.gapped {
			c.sync()
		} else if err := c.checkpoint(); err != nil {
			c.s.opts.Logf("durable: shutdown checkpoint: %v", err)
		}
	}
	c.closeFile()
	return c.s.Err()
}

func (c *committer) closeFile() {
	if c.seg.f != nil {
		c.seg.f.Close()
		c.seg.f = nil
	}
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
