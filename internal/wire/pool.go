package wire

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"seve/internal/action"
)

// This file is the allocation-free delivery path: a shared buffer pool,
// reference-counted encoded frames, and an encode-once cache for the
// envelope section shared by sibling push batches. Ownership rules are
// documented in DESIGN.md §8.

const (
	// minBufCap sizes fresh pool buffers; most protocol messages fit.
	minBufCap = 512
	// maxPooledCap keeps pathological frames (near MaxFrameSize) from
	// pinning their backing arrays in the pool forever.
	maxPooledCap = 1 << 20
)

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, minBufCap)
		return &b
	},
}

// boxPool holds the empty *[]byte boxes getBuf took buffers out of, so
// that PutBuf boxes a returned buffer without allocating.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// outBufs counts the buffers GetBuf handed out that no PutBuf has taken
// back; outFrames counts the frames whose final Release has not run. A
// frame's backing buffer belongs to the frame and is in neither count.
// Both read zero once every pooled value is home.
var outBufs, outFrames atomic.Int64

// Outstanding reports the pooled buffers held outside frames and the
// live frames: the pool's balance, which a running server reports as a
// gauge and a test asserts is zero once everything it started has
// stopped.
func Outstanding() (bufs, frames int64) { return outBufs.Load(), outFrames.Load() }

// GetBuf returns an empty buffer with capacity at least n from the
// shared pool. Return it with PutBuf when done.
func GetBuf(n int) []byte {
	outBufs.Add(1)
	return getBuf(n)
}

// getBuf is GetBuf for a frame's own backing buffer, which stays with
// the frame and is not counted.
func getBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	*bp = nil
	boxPool.Put(bp)
	if cap(b) > 0 {
		// This buffer is live again: forget it as the most recent put so
		// its next (legitimate) PutBuf does not trip the double-put check.
		lastPut.CompareAndSwap(&b[:1][0], nil)
	}
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b
}

// lastPut remembers the first backing byte of the buffer most recently
// returned to the pool. Holding that pointer keeps the allocation alive,
// so observing the same pointer on the next PutBuf cannot be an
// address-reuse coincidence — it is the same buffer returned twice in a
// row, the cheap-to-catch core of every double-put bug. The check is one
// atomic swap; GetBuf clears the sentinel when it hands the remembered
// buffer back out, so put→get→put of one buffer stays legal. At most one
// pooled buffer (≤ maxPooledCap) is pinned at a time.
var lastPut atomic.Pointer[byte]

// PutBuf returns b's backing array to the pool. The caller must not use
// b (or any slice aliasing it) afterwards; returning the same buffer
// twice in a row panics. Oversized buffers are dropped on the floor for
// the GC instead of pinning the pool; either way the ownership ends.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	if cap(b) > maxPooledCap {
		outBufs.Add(-1)
		return
	}
	p := &b[:1][0]
	if lastPut.Swap(p) == p {
		panic("wire: buffer returned to the pool twice")
	}
	outBufs.Add(-1)
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	bufPool.Put(bp)
}

// Frame is one encoded wire frame — the 5-byte length/type header plus
// payload — backed by a pooled buffer and shared across writer
// goroutines by reference counting. Frames are immutable after creation.
// The creator holds one reference; every additional holder must Retain
// before the frame is handed to it and Release exactly once when done.
// When the count reaches zero the frame (and its buffer) returns to the
// pool; touching it after the final Release is a use-after-free bug.
type Frame struct {
	b    []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// NewFrame encodes msg as one complete frame with reference count 1.
func NewFrame(msg Msg) *Frame { return newFrame(msg, nil) }

// NewFrameCached is NewFrame through an EncodeCache: sibling batches
// that share an envelope section (First Bound push fan-out, hybrid relay
// forwards) serialize that section once and memcpy it thereafter.
func NewFrameCached(c *EncodeCache, msg Msg) *Frame { return newFrame(msg, c) }

func newFrame(msg Msg, c *EncodeCache) *Frame {
	f := framePool.Get().(*Frame)
	buf := f.b
	if cap(buf) == 0 {
		buf = getBuf(minBufCap)
	}
	buf = append(buf[:0], 0, 0, 0, 0, byte(msg.Type()))
	buf = appendMsgCached(buf, msg, c)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-frameHeaderSize))
	f.b = buf
	f.refs.Store(1)
	outFrames.Add(1)
	return f
}

// Bytes returns the full encoded frame (header + payload). The slice is
// valid only while the caller holds a reference; reading a frame the
// pool already owns panics.
func (f *Frame) Bytes() []byte {
	f.mustBeLive()
	return f.b
}

// Len returns the total frame length in bytes.
func (f *Frame) Len() int {
	f.mustBeLive()
	return len(f.b)
}

// mustBeLive is the use-after-release sentinel: one atomic load. A
// frame the pool has handed to a new owner reads live again, so it
// catches the stale read that happens before the frame is reused.
func (f *Frame) mustBeLive() {
	if f.refs.Load() <= 0 {
		panic("wire: frame used after its final release")
	}
}

// frameFreed marks a frame whose final reference was released and which
// now belongs to the pool. Parked far below zero so that racing or stale
// Retain/Release calls land in unmistakably-freed territory instead of
// resurrecting a refcount the pool may already have handed to a new
// owner; newFrame stores 1 over it on reuse.
const frameFreed = int32(-1 << 30)

// Retain adds a reference and returns f for chaining. Retaining a frame
// after its final release panics: the frame may already be carrying a
// different message for a different owner.
func (f *Frame) Retain() *Frame {
	if n := f.refs.Add(1); n <= 1 {
		panic("wire: frame retained after its final release")
	}
	return f
}

// Release drops one reference; the last release returns the frame to the
// pool. Releasing more times than Retain+creation panics — an over-
// release means some writer could still be reading recycled bytes — and
// the freed sentinel distinguishes a release of a frame the pool already
// owns from a plain unbalanced release.
func (f *Frame) Release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		if cap(f.b) > maxPooledCap {
			f.b = nil
		}
		f.refs.Store(frameFreed)
		outFrames.Add(-1)
		framePool.Put(f)
	case n < 0:
		if n <= frameFreed {
			panic("wire: frame released after it returned to the pool")
		}
		panic("wire: frame over-released")
	}
}

// AppendFrame appends msg as one complete frame (header + payload) to
// buf — the coalescing building block: a connection's writer appends
// every queued message to one buffer and hands the kernel a single
// write.
func AppendFrame(buf []byte, msg Msg) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(msg.Type()))
	buf = AppendMsg(buf, msg)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-frameHeaderSize))
	return buf
}

// batchFrameHeader is the frame header plus the fixed Batch payload
// header (push flag, installedUpTo, clientSeq, coversFrom, count) — the
// prefix CoalesceFrames parses and rewrites.
const batchFrameHeader = frameHeaderSize + 1 + 8 + 8 + 8 + 4

// CoalesceFrames merges two encoded, undelivered Batch frames into one
// — the superseding writer queue's in-place replacement for contiguous
// sequenced batches (DESIGN.md §13). Both frames must carry TypeBatch
// payloads with the same Push flag, and b must continue exactly where a
// ends: the first sequence b covers (its CoversFrom, or its ClientSeq
// when it is unmerged) must be a.ClientSeq+1. The merged frame keeps
// a's starting sequence as CoversFrom, takes b's ClientSeq and
// InstalledUpTo (the newer batch's, monotonic), and concatenates the
// envelope sections in order — applying it atomically is equivalent to
// applying a then b.
//
// On success the returned frame carries one fresh reference and the
// caller still owns its references on a and b (release them to complete
// the replacement). Returns (nil, false), touching nothing, when the
// frames are not mergeable.
func CoalesceFrames(a, b *Frame) (*Frame, bool) {
	ab, bb := a.Bytes(), b.Bytes()
	if len(ab) < batchFrameHeader || len(bb) < batchFrameHeader {
		return nil, false
	}
	if ab[4] != byte(TypeBatch) || bb[4] != byte(TypeBatch) {
		return nil, false
	}
	if ab[5] != bb[5] { // push flag: merged envelopes must process identically
		return nil, false
	}
	aSeq := binary.LittleEndian.Uint64(ab[14:])
	bSeq := binary.LittleEndian.Uint64(bb[14:])
	if aSeq == 0 || bSeq == 0 {
		return nil, false // unsequenced batches have no contiguity to merge on
	}
	aFrom := binary.LittleEndian.Uint64(ab[22:])
	if aFrom == 0 {
		aFrom = aSeq
	}
	bFrom := binary.LittleEndian.Uint64(bb[22:])
	if bFrom == 0 {
		bFrom = bSeq
	}
	if bFrom != aSeq+1 {
		return nil, false
	}
	aCount := binary.LittleEndian.Uint32(ab[30:])
	bCount := binary.LittleEndian.Uint32(bb[30:])

	f := framePool.Get().(*Frame)
	buf := f.b
	if cap(buf) == 0 {
		buf = getBuf(minBufCap)
	}
	buf = append(buf[:0], 0, 0, 0, 0, byte(TypeBatch))
	buf = append(buf, ab[5])                                                        // push flag
	buf = binary.LittleEndian.AppendUint64(buf, binary.LittleEndian.Uint64(bb[6:])) // b's InstalledUpTo
	buf = binary.LittleEndian.AppendUint64(buf, bSeq)
	buf = binary.LittleEndian.AppendUint64(buf, aFrom)
	buf = binary.LittleEndian.AppendUint32(buf, aCount+bCount)
	buf = append(buf, ab[batchFrameHeader:]...)
	buf = append(buf, bb[batchFrameHeader:]...)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-frameHeaderSize))
	f.b = buf
	f.refs.Store(1)
	outFrames.Add(1)
	return f, true
}

// EncodeCache memoizes the envelope section of the last Batch (or Relay
// inner) it encoded, keyed by the identity of the Envs slice. Sibling
// batches built for a push fan-out share one Envs backing array and
// differ only in the 29-byte per-recipient header, so the envelope
// bytes — the bulk of the frame — are encoded exactly once per tick and
// every further recipient costs a memcpy.
//
// The cache trusts that envelopes are immutable while it lives (the
// engine stamps them once, before fan-out). It is single-goroutine; the
// transport keeps one per dispatch loop and Resets it when done.
type EncodeCache struct {
	key  *action.Envelope // identity of the cached Envs slice
	n    int
	tail []byte
	hits uint64
}

func (c *EncodeCache) envTail(envs []action.Envelope) []byte {
	if c.key == &envs[0] && c.n == len(envs) {
		c.hits++
		return c.tail
	}
	if c.tail == nil {
		c.tail = GetBuf(minBufCap)
	}
	c.tail = c.tail[:0]
	for _, e := range envs {
		c.tail = appendEnvelope(c.tail, e)
	}
	c.key, c.n = &envs[0], len(envs)
	return c.tail
}

// Hits reports how many encodes were served from the cached section.
func (c *EncodeCache) Hits() uint64 { return c.hits }

// Reset forgets the cached section and returns its buffer to the pool.
func (c *EncodeCache) Reset() {
	if c.tail != nil {
		PutBuf(c.tail)
		c.tail = nil
	}
	c.key, c.n = nil, 0
}
