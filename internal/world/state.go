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
type State struct {
	objs map[ObjectID]Value
}

// NewState returns an empty state.
func NewState() *State {
	return &State{objs: make(map[ObjectID]Value)}
}

// Get returns the value of id and whether the object exists. The returned
// slice is the stored one; callers must not mutate it (use Set).
func (s *State) Get(id ObjectID) (Value, bool) {
	v, ok := s.objs[id]
	return v, ok
}

// Set stores a copy of v as the value of id.
func (s *State) Set(id ObjectID, v Value) {
	s.objs[id] = v.Clone()
}

// SetInPlace stores a copy of v as the value of id, overwriting the
// stored buffer in place when the length matches so steady-state updates
// allocate nothing. Only for states owned outright by their engine:
// values previously returned by Get change under any reader that held
// on to them. Semantically identical to Set.
func (s *State) SetInPlace(id ObjectID, v Value) {
	if old, ok := s.objs[id]; ok && len(old) == len(v) {
		copy(old, v)
		return
	}
	s.objs[id] = v.Clone()
}

// Delete removes the object, if present.
func (s *State) Delete(id ObjectID) {
	delete(s.objs, id)
}

// Len reports the number of objects.
func (s *State) Len() int { return len(s.objs) }

// IDs returns all object ids in sorted order.
func (s *State) IDs() IDSet {
	ids := make(IDSet, 0, len(s.objs))
	for id := range s.objs {
		ids = append(ids, id)
	}
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

// Clone returns a deep copy of the state. Clients initialize ζCO as a
// clone of the initial world.
func (s *State) Clone() *State {
	c := &State{objs: make(map[ObjectID]Value, len(s.objs))}
	for id, v := range s.objs {
		c.objs[id] = v.Clone()
	}
	return c
}

// CopyFrom overwrites the values of the given ids with the values in src.
// This is the reconciliation assignment ζCO(WS(Q)) ← ζCS(WS(Q)) of
// Algorithm 3. Objects absent from src are deleted here too, keeping the
// two stores aligned on existence.
func (s *State) CopyFrom(src Reader, ids IDSet) {
	for _, id := range ids {
		if v, ok := src.Get(id); ok {
			s.objs[id] = v.Clone()
		} else {
			delete(s.objs, id)
		}
	}
}

// Digest returns an order-independent hash of the full state, used by
// consistency tests and by the RING inconsistency meter. Two states with
// equal digests are attribute-for-attribute identical with overwhelming
// probability.
func (s *State) Digest() uint64 {
	var sum uint64
	for id, v := range s.objs {
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
	}
	return sum
}

// Equal reports whether two states hold exactly the same objects and
// values.
func (s *State) Equal(o *State) bool {
	if len(s.objs) != len(o.objs) {
		return false
	}
	for id, v := range s.objs {
		if ov, ok := o.objs[id]; !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Reader is the read interface shared by State and the latest-version
// view of MVStore; reconciliation and workload generation read through it.
type Reader interface {
	Get(id ObjectID) (Value, bool)
}

var _ Reader = (*State)(nil)
