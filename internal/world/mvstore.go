package world

import (
	"slices"
	"sort"
)

// MVStore is a multiversion object store: each object keeps a chain of
// (seq, value) versions, where seq is the server-assigned serial position
// of the action that wrote the value.
//
// Under the Incomplete World Model a client's stable state ζCS receives
// actions out of serial order: a later closure (Algorithm 6) can deliver
// an action older than ones the client has already applied, and blind
// writes carry values as of the server's install point. Replaying an
// action exactly therefore requires reading each object "as of" the
// action's serial position — precisely the multiversion-serializability
// machinery the paper builds on ([39], Section VI). A version chain per
// object provides that: ReadAt(id, n) returns the newest version with
// seq ≤ n.
//
// The paper's client-memory optimization (Section III-C: the server
// periodically reports the last installed action "enabling the client to
// garbage collect") maps to PruneBelow. A client knows every object it
// was ever sent but between two install reports only the objects written
// since hold more than one version, so the store lists exactly those
// chains and PruneBelow visits nothing else: garbage collection costs
// what was written, not what is known.
//
// A pruned version's slot and value buffer stay with its chain and take
// the chain's next insert, so a value ReadAt, Latest or Get returns is
// valid only until the store's next WriteAt or PruneBelow. Use it or
// copy it before then: the client's Tx copies what an action writes,
// reconciliation copies into ζCO, and the Stable() users (oracletest,
// baseline.Divergence, the examples) compare at once.
type MVStore struct {
	chains map[ObjectID]*chain
	// multi lists the chains holding more than one version (chain.listed
	// marks membership) — the only ones a prune can shorten.
	multi []*chain
	// slab is the unused rest of the current chain allocation block.
	// Chains are handed out by address and never move, because a chain's
	// version slice may point into the chain itself.
	slab     []chain
	versions int
	// stored counts every version WriteAt ever inserted; it only grows.
	stored int
}

// chain is one object's versions, ascending by seq and never empty while
// the object is known. vs starts out backed by one, so the common chain —
// an object the client was told about once — owns no slice of its own; a
// chain that outgrew one keeps its heap array, and its capacity, across
// prunes; the slots between its length and capacity hold the versions a
// prune dropped, each still owning its value buffer.
type chain struct {
	vs     []version
	one    [1]version
	listed bool
}

type version struct {
	seq uint64
	val Value
}

// chainBlock is how many chains one slab allocation holds once the store
// outgrows what Seed sized for it.
const chainBlock = 32

// NewMVStore returns an empty store.
func NewMVStore() *MVStore {
	return &MVStore{chains: make(map[ObjectID]*chain)}
}

// Seed installs the initial world as version 0 of every object.
func (m *MVStore) Seed(init *State) {
	if n := init.Len(); n > len(m.slab) {
		m.slab = make([]chain, n)
	}
	for id, v := range init.objs {
		m.WriteAt(id, 0, v)
	}
}

func (m *MVStore) newChain() *chain {
	if len(m.slab) == 0 {
		m.slab = make([]chain, chainBlock)
	}
	c := &m.slab[0]
	m.slab = m.slab[1:]
	c.vs = c.one[:0]
	return c
}

// after returns the index of the first version in vs above seq. Reads and
// writes land at the newest version far more often than not, so that is
// tested before bisecting.
func after(vs []version, seq uint64) int {
	n := len(vs)
	if n == 0 || vs[n-1].seq <= seq {
		return n
	}
	lo, hi := 0, n-1 // vs[hi].seq > seq
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vs[mid].seq > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// WriteAt installs a copy of v as the version of id at serial position
// seq. Writing the same (id, seq) twice replaces the version — this is
// idempotent redelivery, not an error, because the server may resend an
// action in a later closure batch. The copy goes into a buffer the chain
// already owns when one is big enough: the replaced version's own, or
// the spare slot a prune left past the chain's end.
func (m *MVStore) WriteAt(id ObjectID, seq uint64, v Value) {
	c := m.chains[id]
	if c == nil {
		c = m.newChain()
		m.chains[id] = c
	}
	i := after(c.vs, seq)
	if i > 0 && c.vs[i-1].seq == seq {
		// Redelivery re-evaluates to the same value; the stored copy is
		// replaced only when it differs.
		if old := &c.vs[i-1].val; !old.Equal(v) {
			*old = reuse(*old, v)
		}
		return
	}
	// Within capacity the new slot keeps what a prune rotated there.
	c.vs = slices.Grow(c.vs, 1)[:len(c.vs)+1]
	spare := c.vs[len(c.vs)-1].val
	copy(c.vs[i+1:], c.vs[i:])
	c.vs[i] = version{seq: seq, val: reuse(spare, v)}
	m.versions++
	m.stored++
	if len(c.vs) > 1 && !c.listed {
		c.listed = true
		m.multi = append(m.multi, c)
	}
}

// reuse returns a copy of v, in buf when buf can hold it. A nil v stays
// nil, an empty one empty.
func reuse(buf, v Value) Value {
	if buf == nil || v == nil || cap(buf) < len(v) {
		return v.Clone()
	}
	return append(buf[:0], v...)
}

// ReadAt returns the value of id as of serial position seq: the newest
// version with version-seq ≤ seq. ok is false if the object has no
// version that old (the client has never been sent its value).
func (m *MVStore) ReadAt(id ObjectID, seq uint64) (Value, bool) {
	c := m.chains[id]
	if c == nil {
		return nil, false
	}
	i := after(c.vs, seq)
	if i == 0 {
		return nil, false
	}
	return c.vs[i-1].val, true
}

// Latest returns the newest version of id with its serial position.
func (m *MVStore) Latest(id ObjectID) (Value, uint64, bool) {
	c := m.chains[id]
	if c == nil {
		return nil, 0, false
	}
	v := c.vs[len(c.vs)-1]
	return v.val, v.seq, true
}

// Get returns the newest version of id, satisfying the Reader interface
// so that reconciliation (Algorithm 3) can copy stable values into the
// optimistic state.
func (m *MVStore) Get(id ObjectID) (Value, bool) {
	v, _, ok := m.Latest(id)
	return v, ok
}

var _ Reader = (*MVStore)(nil)

// Known reports whether the store holds any version of id.
func (m *MVStore) Known(id ObjectID) bool {
	return m.chains[id] != nil
}

// PruneBelow discards versions older than seq, keeping for each object
// the newest version with version-seq ≤ seq at its own position, so
// ReadAt(id, x) answers as before for every x ≥ seq. The survivor is not
// moved up to seq: the client may never have been sent a later write to
// the object, and a version claims only the position it was written at.
// This implements the client-side garbage collection triggered by the
// server's last-installed notifications. It visits only the chains
// holding more than one version and shortens them in place.
func (m *MVStore) PruneBelow(seq uint64) {
	for _, c := range m.multi {
		if i := after(c.vs, seq); i > 1 {
			// c.vs[i-1] is the newest version at or below seq; drop
			// everything below it.
			m.cut(c, i-1)
		}
	}
	m.relist()
}

// cut drops the k oldest versions of c by rotating them past its end.
// The chain keeps their slots and the value buffers in them, each owned
// by that slot alone, for WriteAt's next inserts: a chain pruned as fast
// as it is written stops allocating, and what it holds on to is bounded
// by its own capacity.
func (m *MVStore) cut(c *chain, k int) {
	slices.Reverse(c.vs[:k])
	slices.Reverse(c.vs[k:])
	slices.Reverse(c.vs)
	m.versions -= k
	c.vs = c.vs[:len(c.vs)-k]
}

// relist drops from the list the chains a cut left with one version, or
// none.
func (m *MVStore) relist() {
	still := m.multi[:0]
	for _, c := range m.multi {
		if len(c.vs) > 1 {
			still = append(still, c)
		} else {
			c.listed = false
		}
	}
	clear(m.multi[len(still):])
	m.multi = still
}

// Versions reports the number of versions the store holds, for memory
// accounting in tests and the GC experiment.
func (m *MVStore) Versions() int { return m.versions }

// Stored reports the number of versions the store was ever written,
// pruned or not: what Versions would read had nothing been discarded.
func (m *MVStore) Stored() int { return m.stored }

// LatestState materializes the newest version of every object as a State.
func (m *MVStore) LatestState() *State {
	s := NewState()
	for id, c := range m.chains {
		s.Set(id, c.vs[len(c.vs)-1].val)
	}
	return s
}

// IDs returns the ids of all objects with at least one version, sorted.
func (m *MVStore) IDs() IDSet {
	ids := make(IDSet, 0, len(m.chains))
	for id := range m.chains {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
