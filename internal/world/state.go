package world

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// State is a single-version object store. The server's authoritative
// state ζS and each client's optimistic state ζCO are States; stable
// client states under the Incomplete World Model are MVStores (see
// mvstore.go) because actions can arrive out of serial order there.
//
// A State is normally one map. Partition splits it into a power-of-two
// set of hash-keyed segments so the shard router's install phase can
// apply disjoint segments' writes on concurrent workers (state is only
// segmented by the engine that owns it outright; every observable
// behavior — Get, IDs order, Digest, Equal — is independent of the
// segment count). Segments are keyed by an id hash rather than the
// spatial lane map on purpose: reads stay a single lookup with no
// ownership indirection, and a batch that spans lanes still partitions
// cleanly by segment.
type State struct {
	objs map[ObjectID]Value
	// segs replaces objs after Partition: segs[seghash(id)&mask] holds
	// the object. len(segs) is a power of two.
	segs []map[ObjectID]Value
	mask uint64
}

// NewState returns an empty state.
func NewState() *State {
	return &State{objs: make(map[ObjectID]Value)}
}

// Partition splits the state into hash-keyed segments (n rounded up to
// a power of two, at least 1). Existing objects are redistributed. Only
// the owning engine may call this, and not concurrently with any other
// access; afterwards, writes to distinct segments are safe from
// distinct goroutines (group by SegmentOf).
func (s *State) Partition(n int) {
	p := 1
	for p < n {
		p <<= 1
	}
	segs := make([]map[ObjectID]Value, p)
	for i := range segs {
		segs[i] = make(map[ObjectID]Value)
	}
	mask := uint64(p - 1)
	move := func(m map[ObjectID]Value) {
		for id, v := range m {
			segs[seghash(uint64(id))&mask][id] = v
		}
	}
	if s.segs != nil {
		for _, m := range s.segs {
			move(m)
		}
	} else {
		move(s.objs)
	}
	s.objs, s.segs, s.mask = nil, segs, mask
}

// Segments reports the segment count (1 for an unpartitioned state).
func (s *State) Segments() int {
	if s.segs == nil {
		return 1
	}
	return len(s.segs)
}

// SegmentOf returns the segment index owning id, in [0, Segments()).
func (s *State) SegmentOf(id ObjectID) int {
	if s.segs == nil {
		return 0
	}
	return int(seghash(uint64(id)) & s.mask)
}

// m returns the map holding id.
func (s *State) m(id ObjectID) map[ObjectID]Value {
	if s.segs == nil {
		return s.objs
	}
	return s.segs[seghash(uint64(id))&s.mask]
}

// seghash is a splitmix64 finalizer: cheap, stateless, well spread even
// for the dense small ObjectIDs the worlds mint.
func seghash(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Get returns the value of id and whether the object exists. The returned
// slice is the stored one; callers must not mutate it (use Set).
func (s *State) Get(id ObjectID) (Value, bool) {
	v, ok := s.m(id)[id]
	return v, ok
}

// Set stores a copy of v as the value of id.
func (s *State) Set(id ObjectID, v Value) {
	s.m(id)[id] = v.Clone()
}

// SetInPlace stores a copy of v as the value of id, overwriting the
// stored buffer in place when the length matches so steady-state updates
// allocate nothing. Only for states owned outright by their engine:
// values previously returned by Get change under any reader that held
// on to them. Semantically identical to Set.
func (s *State) SetInPlace(id ObjectID, v Value) {
	m := s.m(id)
	if old, ok := m[id]; ok && len(old) == len(v) {
		copy(old, v)
		return
	}
	m[id] = v.Clone()
}

// Delete removes the object, if present.
func (s *State) Delete(id ObjectID) {
	delete(s.m(id), id)
}

// Len reports the number of objects.
func (s *State) Len() int {
	if s.segs == nil {
		return len(s.objs)
	}
	n := 0
	for _, m := range s.segs {
		n += len(m)
	}
	return n
}

// forEach visits every object, in no particular order.
func (s *State) forEach(fn func(id ObjectID, v Value)) {
	if s.segs == nil {
		for id, v := range s.objs {
			fn(id, v)
		}
		return
	}
	for _, m := range s.segs {
		for id, v := range m {
			fn(id, v)
		}
	}
}

// IDs returns all object ids in sorted order.
func (s *State) IDs() IDSet {
	ids := make(IDSet, 0, s.Len())
	s.forEach(func(id ObjectID, _ Value) { ids = append(ids, id) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Writes flattens the state into write records: every object's value in
// ascending id order (the deterministic-iteration contract every wire
// emission obeys). Values are cloned — the records outlive the call.
// It is the payload of a Welcome and of a snapshot CatchUp.
func (s *State) Writes() []Write {
	ids := s.IDs()
	writes := make([]Write, 0, len(ids))
	for _, id := range ids {
		v, _ := s.Get(id)
		writes = append(writes, Write{ID: id, Val: v.Clone()})
	}
	return writes
}

// Clone returns a deep copy of the state as a single segment (the
// partitioning is an engine-side layout choice, not part of the value).
// Clients initialize ζCO as a clone of the initial world.
func (s *State) Clone() *State {
	c := NewState()
	s.forEach(func(id ObjectID, v Value) { c.objs[id] = v.Clone() })
	return c
}

// CopyFrom overwrites the values of the given ids with the values in src.
// This is the reconciliation assignment ζCO(WS(Q)) ← ζCS(WS(Q)) of
// Algorithm 3. Objects absent from src are deleted here too, keeping the
// two stores aligned on existence.
func (s *State) CopyFrom(src Reader, ids IDSet) {
	for _, id := range ids {
		if v, ok := src.Get(id); ok {
			s.m(id)[id] = v.Clone()
		} else {
			delete(s.m(id), id)
		}
	}
}

// Digest returns an order-independent hash of the full state, used by
// consistency tests and by the RING inconsistency meter. Two states with
// equal digests are attribute-for-attribute identical with overwhelming
// probability.
func (s *State) Digest() uint64 {
	var sum uint64
	s.forEach(func(id ObjectID, v Value) {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
		for _, f := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
		// XOR makes the digest independent of iteration order.
		sum ^= h.Sum64()
	})
	return sum
}

// Equal reports whether two states hold exactly the same objects and
// values, regardless of how either is segmented.
func (s *State) Equal(o *State) bool {
	if s.Len() != o.Len() {
		return false
	}
	eq := true
	s.forEach(func(id ObjectID, v Value) {
		if !eq {
			return
		}
		ov, ok := o.Get(id)
		if !ok || !v.Equal(ov) {
			eq = false
		}
	})
	return eq
}

// Reader is the read interface shared by State and the latest-version
// view of MVStore; reconciliation and workload generation read through it.
type Reader interface {
	Get(id ObjectID) (Value, bool)
}

var _ Reader = (*State)(nil)
