// Corpus for the pooldiscipline checker. Lines with a `// want` comment
// must be flagged with a message matching the regexp; everything else
// must stay clean.
package pooltest

import "seve/internal/wire"

// leakOnReturn acquires a buffer and returns without PutBuf.
func leakOnReturn() []byte {
	buf := wire.GetBuf(64) // want `not returned with PutBuf on every path`
	buf = append(buf, 1)
	out := make([]byte, len(buf))
	copy(out, buf)
	return out
}

// conditionalLeak releases on one branch only.
func conditionalLeak(flush bool) {
	buf := wire.GetBuf(16) // want `not returned with PutBuf on every path`
	buf = append(buf, 7)
	if flush {
		wire.PutBuf(buf)
	}
}

// balanced is the canonical clean shape.
func balanced() {
	buf := wire.GetBuf(16)
	buf = append(buf, 1, 2, 3)
	wire.PutBuf(buf)
}

// deferredClose releases through a deferred closure — clean.
func deferredClose() []int {
	buf := wire.GetBuf(32)
	defer func() { wire.PutBuf(buf) }()
	buf = append(buf, 9)
	return []int{len(buf)}
}

// derived tracks the buffer through an append-style call — the
// WriteFrame shape — and stays clean.
func derived(msg wire.Msg) int {
	buf := wire.AppendFrame(wire.GetBuf(64), msg)
	n := len(buf)
	wire.PutBuf(buf)
	return n
}

// useAfterPut touches the buffer after it went back to the pool.
func useAfterPut() byte {
	buf := wire.GetBuf(8)
	buf = append(buf, 42)
	wire.PutBuf(buf)
	return buf[0] // want `use of pooled buffer "buf" after PutBuf`
}

// doublePut returns the same buffer twice.
func doublePut() {
	buf := wire.GetBuf(8)
	wire.PutBuf(buf)
	wire.PutBuf(buf) // want `returned to the pool twice`
}

// discard drops the acquisition on the floor.
func discard() {
	wire.GetBuf(8) // want `result of GetBuf is discarded`
}

// handOff transfers ownership through a channel — clean; the receiver
// releases it.
func handOff(ch chan []byte) {
	buf := wire.GetBuf(16)
	ch <- buf
}

// frameLeak drops the creation reference.
func frameLeak() int {
	f := wire.NewFrame(&wire.Hello{InterestMask: 1}) // want `frame "f" is not released on every path`
	return f.Len()
}

// frameBalanced is the dispatch shape: retain for a channel hand-off,
// release on the full-queue branch, release the creation reference at
// the end. Clean.
func frameBalanced(ch chan *wire.Frame) {
	f := wire.NewFrame(&wire.Hello{})
	f.Retain()
	select {
	case ch <- f:
	default:
		f.Release()
	}
	f.Release()
}

// overRelease drops more references than it owns.
func overRelease() {
	f := wire.NewFrame(&wire.Hello{})
	f.Release()
	f.Release() // want `released after its final reference`
}

// retainAfterFree revives a frame the pool may already own.
func retainAfterFree() {
	f := wire.NewFrame(&wire.Hello{})
	f.Release()
	f.Retain() // want `retained after its final Release`
}

// perIteration leaks one frame per loop iteration.
func perIteration(msgs []wire.Msg) int {
	total := 0
	for _, m := range msgs {
		f := wire.NewFrame(m) // want `frame "f" is not released on every path`
		total += f.Len()
	}
	return total
}

// stash moves ownership into a struct — a later owner releases. Clean.
type stash struct {
	f *wire.Frame
}

func (s *stash) fill() {
	s.f = wire.NewFrame(&wire.Hello{})
}

// supersedeInPlace is the superseding enqueue shape (DESIGN.md §13):
// retain the fresh frame for the slot it takes over, release the
// displaced frame's slot reference, drop the creation reference. Clean.
func supersedeInPlace(slot []*wire.Frame, i int) {
	f := wire.NewFrame(&wire.Hello{})
	f.Retain()
	old := slot[i]
	slot[i] = f
	old.Release()
	f.Release()
}

// supersedePending replaces a locally pending frame: the displaced
// reference is released before the name is rebound, and the
// replacement's reference travels out on the channel. Clean.
func supersedePending(ch chan *wire.Frame) {
	pending := wire.NewFrame(&wire.Hello{})
	pending.Release()
	pending = wire.NewFrame(&wire.Hello{InterestMask: 1})
	ch <- pending
}

// supersedeLeak rebinds the pending frame without releasing the
// displaced reference — the classic replace-in-queue leak: the stale
// frame never returns to the pool.
func supersedeLeak(ch chan *wire.Frame) {
	pending := wire.NewFrame(&wire.Hello{}) // want `frame "pending" is not released on every path`
	pending = wire.NewFrame(&wire.Hello{InterestMask: 1})
	ch <- pending
}

// supersedeUseAfter reads the displaced frame after its reference went
// back to the pool — a drain racing a replacement.
func supersedeUseAfter() int {
	f := wire.NewFrame(&wire.Hello{})
	f.Release()
	return f.Len() // want `use of frame "f" after its final Release`
}

// walJob mirrors the durable committer's queue element: a framed
// record in a pooled buffer whose ownership travels with the job
// (DESIGN.md §15).
type walJob struct {
	lane int32
	buf  []byte
}

// walHandOff is the journal fast path: encode into a pooled buffer on
// the caller's goroutine, wrap it in the job, send. The committer
// releases it — ownership moved with the composite literal. Clean.
func walHandOff(jobs chan walJob) {
	buf := wire.GetBuf(64)
	buf = append(buf, 1)
	jobs <- walJob{lane: 0, buf: buf}
}

// walShedLeak is the degrade path gone wrong: when the queue is full
// the record is dropped, but the buffer never goes back to the pool —
// sustained overload starves the encoder.
func walShedLeak(jobs chan walJob, full bool) {
	buf := wire.GetBuf(64) // want `not returned with PutBuf on every path`
	buf = append(buf, 1)
	if full {
		return
	}
	jobs <- walJob{lane: 0, buf: buf}
}

// walPayloadReuse frames a record from a scratch payload, returns the
// scratch to the pool, then touches it again — the batch-retained
// encode shape with the release hoisted one line too early.
func walPayloadReuse(jobs chan walJob) int {
	payload := wire.GetBuf(32)
	payload = append(payload, 7)
	buf := wire.GetBuf(64)
	buf = append(buf, payload...)
	wire.PutBuf(payload)
	jobs <- walJob{lane: 1, buf: buf}
	return len(payload) // want `use of pooled buffer "payload" after PutBuf`
}

// walWriter mirrors the committer's per-file write buffer: records are
// gathered in buf and handed to the kernel in one write per drain
// (DESIGN.md §15).
type walWriter struct {
	buf  []byte
	pend [][]byte
}

// walCoalesce is the gather step done right: the record's bytes are
// copied into the write buffer, and only then does the pooled record go
// back. Nothing of it outlives the PutBuf. Clean.
func walCoalesce(w *walWriter) {
	rec := wire.GetBuf(64)
	rec = append(rec, 1)
	w.buf = append(w.buf, rec...)
	wire.PutBuf(rec)
}

// walCoalesceDeferred is the same with the committer's deferred release.
// Clean.
func walCoalesceDeferred(w *walWriter) int {
	rec := wire.GetBuf(64)
	defer wire.PutBuf(rec)
	rec = append(rec, 1)
	w.buf = append(w.buf, rec[8:]...)
	return len(w.buf)
}

// walCoalesceAlias saves the copy: it queues the record itself for the
// next write and returns it to the pool. By the time the writer flushes,
// the pool has handed the same bytes to another encoder.
func walCoalesceAlias(w *walWriter) {
	rec := wire.GetBuf(64)
	rec = append(rec, 1)
	w.pend = append(w.pend, rec)
	wire.PutBuf(rec) // want `buffer "rec" returned to the pool while a slice of it is still stored`
}

// walCoalesceBody keeps only the record's body, past the frame header —
// still the pooled bytes.
func walCoalesceBody(w *walWriter) {
	rec := wire.GetBuf(64)
	rec = append(rec, 1)
	w.buf = rec[8:]
	wire.PutBuf(rec) // want `buffer "rec" returned to the pool while a slice of it is still stored`
}

// walCoalesceAliasDeferred is the alias under the deferred release: the
// store itself is the mistake.
func walCoalesceAliasDeferred(w *walWriter) {
	rec := wire.GetBuf(64)
	defer wire.PutBuf(rec)
	rec = append(rec, 1)
	w.pend = append(w.pend, rec[8:]) // want `slice of pooled buffer "rec" stored past its deferred PutBuf`
}
