package world

// Interner assigns dense, monotonically increasing indices to ObjectIDs.
//
// The server's analysis hot path (Algorithms 6 and 7) is a loop of set
// operations over object ids. ObjectIDs are sparse 64-bit values, so
// set membership over them needs either sorted-slice merges (the IDSet
// operations, which allocate a fresh slice per step) or hashing. Interned
// indices are dense: membership becomes one array access, and a per-walk
// scratch set (ScratchSet) gives Union/Subtract/Intersects with zero
// allocation and O(1) amortized cost per element.
//
// Indices are never reused. The interner is owned by a single engine
// goroutine; concurrent readers are safe only while no Intern call can
// run (the parallel push scheduler relies on this: all ids are interned
// at enqueue time, before any fan-out).
type Interner struct {
	idx map[ObjectID]uint32
	ids []ObjectID // dense index -> ObjectID
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{idx: make(map[ObjectID]uint32)}
}

// Intern returns the dense index of id, assigning the next free index on
// first sight.
func (it *Interner) Intern(id ObjectID) uint32 {
	if i, ok := it.idx[id]; ok {
		return i
	}
	i := uint32(len(it.ids))
	it.idx[id] = i
	it.ids = append(it.ids, id)
	return i
}

// Lookup returns the dense index of id without assigning one.
func (it *Interner) Lookup(id ObjectID) (uint32, bool) {
	i, ok := it.idx[id]
	return i, ok
}

// ID returns the ObjectID at dense index i.
func (it *Interner) ID(i uint32) ObjectID { return it.ids[i] }

// Len reports how many distinct ObjectIDs have been interned.
func (it *Interner) Len() int { return len(it.ids) }

// InternSet appends the dense indices of every id in s to dst and
// returns it. The result preserves s's (sorted) order.
func (it *Interner) InternSet(s IDSet, dst []uint32) []uint32 {
	for _, id := range s {
		dst = append(dst, it.Intern(id))
	}
	return dst
}

// noCopy marks a struct that must not be copied by value: stock `go vet`
// copylocks flags a copy of any struct holding a field whose pointer type
// has Lock and Unlock (the sync package's own idiom). Zero-size and kept
// as the first field, it moves neither the struct's size nor a hot
// field's offset. TestNoCopyMarkerIsLive proves the gate fires.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// ScratchSet is a set of dense indices with O(1) clear: membership is
// "stamp[i] == epoch", so Reset just bumps the epoch instead of touching
// memory. One ScratchSet per walk (or per worker) makes the Algorithm 6/7
// chain-set updates — S ∪ RS, S − WS, S ∩ WS ≠ ∅ — branch-light array
// ops with no per-step allocation, replacing the sorted-slice IDSet
// merges on the hot path.
//
// Reset must be called before the first use of an epoch (the zero value
// needs one Reset before any Add).
//
// A ScratchSet's identity is its address: a by-value copy forks the
// epoch, and a Reset on either side then resurrects stale members on
// the other. The noCopy field makes `go vet` (copylocks) refuse copies.
type ScratchSet struct {
	_     noCopy
	stamp []uint64 // stamp[i] == epoch ⇔ i is a member
	added []uint64 // added[i] == epoch ⇔ i was appended to members this epoch
	epoch uint64
	// members records every index added this epoch, in first-add order,
	// so the final set can be materialized without scanning the universe.
	// Removed members stay in the list (their stamp no longer matches).
	members []uint32
}

// Reset empties the set and ensures capacity for dense indices < n.
func (s *ScratchSet) Reset(n int) {
	s.Grow(n)
	s.epoch++
	s.members = s.members[:0]
}

// Grow ensures capacity for dense indices < n without clearing the
// membership. Long-lived sets (the client's divergence set) call it as
// the interner grows, between Resets.
func (s *ScratchSet) Grow(n int) {
	if n <= len(s.stamp) {
		return
	}
	grown := make([]uint64, n+n/2)
	copy(grown, s.stamp)
	s.stamp = grown
	grownA := make([]uint64, len(grown))
	copy(grownA, s.added)
	s.added = grownA
}

// Add inserts i, reporting whether it was absent.
func (s *ScratchSet) Add(i uint32) bool {
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	if s.added[i] != s.epoch {
		s.added[i] = s.epoch
		s.members = append(s.members, i)
	}
	return true
}

// Remove deletes i if present.
func (s *ScratchSet) Remove(i uint32) {
	if s.stamp[i] == s.epoch {
		s.stamp[i] = 0
	}
}

// Contains reports membership of i.
func (s *ScratchSet) Contains(i uint32) bool {
	return int(i) < len(s.stamp) && s.stamp[i] == s.epoch
}

// AddAll inserts every index in ids.
func (s *ScratchSet) AddAll(ids []uint32) {
	for _, i := range ids {
		s.Add(i)
	}
}

// RemoveAll deletes every index in ids — the S ← S − WS(a) step.
func (s *ScratchSet) RemoveAll(ids []uint32) {
	for _, i := range ids {
		s.Remove(i)
	}
}

// ContainsAny reports whether any index in ids is a member — the
// WS(a) ∩ S ≠ ∅ test of Algorithms 6 and 7.
func (s *ScratchSet) ContainsAny(ids []uint32) bool {
	for _, i := range ids {
		if s.stamp[i] == s.epoch {
			return true
		}
	}
	return false
}

// Len reports the number of members.
func (s *ScratchSet) Len() int {
	n := 0
	for _, i := range s.members {
		if s.stamp[i] == s.epoch {
			n++
		}
	}
	return n
}

// AppendMembers appends the current members to dst and returns it, in
// first-add order, skipping removed indices.
func (s *ScratchSet) AppendMembers(dst []uint32) []uint32 {
	for _, i := range s.members {
		if s.stamp[i] == s.epoch {
			dst = append(dst, i)
		}
	}
	return dst
}

// CountedSet is a multiset over dense indices: Inc and Dec adjust an
// index's multiplicity and Contains tests whether it is positive. The
// client engine maintains WS(Q) — the union of the declared write sets
// of all queued actions — with one: each action Incs its write set on
// enqueue and Decs it on resolution, replacing the O(k²) sorted-slice
// Union rebuild that Algorithm 3 membership tests used to pay per
// remote envelope.
//
// Not to be copied after first use (a copy forks distinct from the
// shared counts); noCopy holds that through `go vet`.
type CountedSet struct {
	_        noCopy
	count    []uint32
	distinct int
}

// Grow ensures capacity for dense indices < n.
func (c *CountedSet) Grow(n int) {
	if n <= len(c.count) {
		return
	}
	grown := make([]uint32, n+n/2)
	copy(grown, c.count)
	c.count = grown
}

// Inc raises the multiplicity of i by one.
func (c *CountedSet) Inc(i uint32) {
	if c.count[i] == 0 {
		c.distinct++
	}
	c.count[i]++
}

// Dec lowers the multiplicity of i by one. Decrementing an absent index
// panics: it means enqueue/resolve bookkeeping got out of sync.
func (c *CountedSet) Dec(i uint32) {
	if c.count[i] == 0 {
		panic("world: CountedSet.Dec of absent index")
	}
	c.count[i]--
	if c.count[i] == 0 {
		c.distinct--
	}
}

// Contains reports whether i has positive multiplicity.
func (c *CountedSet) Contains(i uint32) bool {
	return int(i) < len(c.count) && c.count[i] > 0
}

// Distinct reports how many indices have positive multiplicity.
func (c *CountedSet) Distinct() int { return c.distinct }
