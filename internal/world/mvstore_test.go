package world

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMVStoreReadAt(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 0, Value{0})
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 10, Value{10})

	cases := []struct {
		seq  uint64
		want float64
		ok   bool
	}{
		{0, 0, true},
		{3, 0, true},
		{5, 5, true},
		{7, 5, true},
		{10, 10, true},
		{100, 10, true},
	}
	for _, c := range cases {
		v, ok := m.ReadAt(1, c.seq)
		if ok != c.ok || (ok && v[0] != c.want) {
			t.Fatalf("ReadAt(1, %d) = %v, %v; want %v", c.seq, v, ok, c.want)
		}
	}
	if _, ok := m.ReadAt(2, 100); ok {
		t.Fatal("ReadAt of unknown object succeeded")
	}
}

func TestMVStoreOutOfOrderWrites(t *testing.T) {
	// The Incomplete World Model delivers actions out of serial order;
	// the chain must stay sorted regardless of insertion order.
	m := NewMVStore()
	m.WriteAt(1, 10, Value{10})
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 0, Value{0})
	if v, _ := m.ReadAt(1, 7); v[0] != 5 {
		t.Fatalf("ReadAt(7) = %v, want 5", v)
	}
	if v, seq, _ := m.Latest(1); v[0] != 10 || seq != 10 {
		t.Fatalf("Latest = %v @ %d", v, seq)
	}
	// An older write arriving after a newer one must NOT become latest —
	// the Thomas-write-rule behaviour falls out of the chain structure.
	m.WriteAt(1, 7, Value{7})
	if v, seq, _ := m.Latest(1); v[0] != 10 || seq != 10 {
		t.Fatalf("Latest after late old write = %v @ %d", v, seq)
	}
}

func TestMVStoreIdempotentRedelivery(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 5, Value{55}) // redelivery replaces
	if m.Versions() != 1 {
		t.Fatalf("Versions = %d, want 1", m.Versions())
	}
	if v, _ := m.ReadAt(1, 5); v[0] != 55 {
		t.Fatalf("ReadAt = %v, want 55", v)
	}
}

func TestMVStoreSeedAndLatestState(t *testing.T) {
	init := NewState()
	init.Set(1, Value{1})
	init.Set(2, Value{2})
	m := NewMVStore()
	m.Seed(init)
	m.WriteAt(1, 3, Value{30})
	s := m.LatestState()
	if v, _ := s.Get(1); v[0] != 30 {
		t.Fatalf("LatestState obj 1 = %v", v)
	}
	if v, _ := s.Get(2); v[0] != 2 {
		t.Fatalf("LatestState obj 2 = %v", v)
	}
	if !m.IDs().Equal(NewIDSet(1, 2)) {
		t.Fatalf("IDs = %v", m.IDs())
	}
	if !m.Known(1) || m.Known(9) {
		t.Fatal("Known wrong")
	}
}

func TestMVStorePruneBelow(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 0, Value{0})
	m.WriteAt(1, 5, Value{5})
	m.WriteAt(1, 10, Value{10})
	m.WriteAt(2, 0, Value{100})
	m.PruneBelow(7)
	// Object 1: version 0 goes; version 5 survives at its own position.
	if m.Versions() != 3 || m.Stored() != 4 {
		t.Fatalf("Versions = %d, Stored = %d; want 3 and 4", m.Versions(), m.Stored())
	}
	if v, ok := m.ReadAt(1, 7); !ok || v[0] != 5 {
		t.Fatalf("ReadAt(1,7) after prune = %v, %v", v, ok)
	}
	if v, ok := m.ReadAt(1, 5); !ok || v[0] != 5 {
		t.Fatalf("ReadAt(1,5) after prune = %v, %v; the survivor moved off its position", v, ok)
	}
	if v, ok := m.ReadAt(1, 20); !ok || v[0] != 10 {
		t.Fatalf("ReadAt(1,20) after prune = %v, %v", v, ok)
	}
	// Object 2 has a single version; prune must keep it readable.
	if v, ok := m.ReadAt(2, 100); !ok || v[0] != 100 {
		t.Fatalf("ReadAt(2) after prune = %v, %v", v, ok)
	}
}

func TestMVStoreGetReaderInterface(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 2, Value{42})
	var r Reader = m
	v, ok := r.Get(1)
	if !ok || v[0] != 42 {
		t.Fatalf("Reader.Get = %v, %v", v, ok)
	}
}

// TestMVStoreMatchesSerialReplayProperty: writing a random history in a
// random delivery order must yield the same ReadAt answers as writing it
// in serial order.
func TestMVStoreMatchesSerialReplayProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type w struct {
			id  ObjectID
			seq uint64
			val float64
		}
		var hist []w
		used := map[[2]uint64]bool{}
		for i := 0; i < 60; i++ {
			id := ObjectID(rng.Intn(5))
			seq := uint64(rng.Intn(40))
			if used[[2]uint64{uint64(id), seq}] {
				continue
			}
			used[[2]uint64{uint64(id), seq}] = true
			hist = append(hist, w{id, seq, rng.Float64()})
		}
		serial := NewMVStore()
		for _, x := range hist {
			serial.WriteAt(x.id, x.seq, Value{x.val})
		}
		shuffled := NewMVStore()
		perm := rng.Perm(len(hist))
		for _, i := range perm {
			x := hist[i]
			shuffled.WriteAt(x.id, x.seq, Value{x.val})
		}
		for probe := 0; probe < 50; probe++ {
			id := ObjectID(rng.Intn(5))
			at := uint64(rng.Intn(45))
			v1, ok1 := serial.ReadAt(id, at)
			v2, ok2 := shuffled.ReadAt(id, at)
			if ok1 != ok2 {
				return false
			}
			if ok1 && !v1.Equal(v2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMVStorePruneInvariantProperty: pruning must not change any ReadAt
// at or above the prune point.
func TestMVStorePruneInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMVStore()
		ref := NewMVStore()
		for i := 0; i < 80; i++ {
			id := ObjectID(rng.Intn(6))
			seq := uint64(rng.Intn(50))
			val := Value{rng.Float64()}
			m.WriteAt(id, seq, val)
			ref.WriteAt(id, seq, val)
		}
		cut := uint64(rng.Intn(50))
		m.PruneBelow(cut)
		for probe := 0; probe < 60; probe++ {
			id := ObjectID(rng.Intn(6))
			at := cut + uint64(rng.Intn(20))
			v1, ok1 := m.ReadAt(id, at)
			v2, ok2 := ref.ReadAt(id, at)
			if ok1 != ok2 || (ok1 && !v1.Equal(v2)) {
				return false
			}
		}
		return m.Versions() <= ref.Versions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refStore is the store as it was before the multi-version index: one
// slice per object, PruneBelow walking every chain and building a fresh
// slice per pruned chain. It is the
// reference the indexed store is held to.
type refStore struct {
	chains map[ObjectID][]version
	stored int
}

func newRefStore() *refStore { return &refStore{chains: make(map[ObjectID][]version)} }

func (m *refStore) WriteAt(id ObjectID, seq uint64, v Value) {
	chain := m.chains[id]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].seq >= seq })
	if i < len(chain) && chain[i].seq == seq {
		chain[i].val = v.Clone()
		return
	}
	chain = append(chain, version{})
	copy(chain[i+1:], chain[i:])
	chain[i] = version{seq: seq, val: v.Clone()}
	m.chains[id] = chain
	m.stored++
}

func (m *refStore) ReadAt(id ObjectID, seq uint64) (Value, bool) {
	chain := m.chains[id]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > seq })
	if i == 0 {
		return nil, false
	}
	return chain[i-1].val, true
}

func (m *refStore) Latest(id ObjectID) (Value, uint64, bool) {
	chain := m.chains[id]
	if len(chain) == 0 {
		return nil, 0, false
	}
	v := chain[len(chain)-1]
	return v.val, v.seq, true
}

func (m *refStore) PruneBelow(seq uint64) {
	for id, chain := range m.chains {
		i := sort.Search(len(chain), func(i int) bool { return chain[i].seq > seq })
		if i <= 1 {
			continue
		}
		m.chains[id] = append([]version(nil), chain[i-1:]...)
	}
}

func (m *refStore) Versions() int {
	n := 0
	for _, chain := range m.chains {
		n += len(chain)
	}
	return n
}

func (m *refStore) IDs() IDSet {
	ids := make([]ObjectID, 0, len(m.chains))
	for id := range m.chains {
		ids = append(ids, id)
	}
	return NewIDSet(ids...)
}

// TestMVStoreMatchesReference drives the indexed store and the reference
// with the same random sequence of writes (in and out of order, with
// redelivery) and prunes, and compares every
// observable after every step. Versions — the memory the garbage
// collection exists to bound — may never read higher than the
// reference's.
func TestMVStoreMatchesReference(t *testing.T) {
	const objects, probes = 12, 8
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewMVStore(), newRefStore()
		init := NewState()
		for id := ObjectID(0); id < objects/2; id++ {
			init.Set(id, Value{float64(id)})
			ref.WriteAt(id, 0, Value{float64(id)})
		}
		m.Seed(init)
		head := uint64(1) // serial positions issued so far
		var last struct {
			id  ObjectID
			seq uint64
			val Value
		}
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(19); {
			case r < 12:
				// A write near the head, sometimes well behind it (a later
				// closure reaching back), sometimes to an unknown object.
				head += uint64(rng.Intn(3))
				seq := head
				if rng.Intn(4) == 0 {
					seq -= uint64(rng.Intn(int(min(head, 12))))
				}
				last.id, last.seq, last.val = ObjectID(rng.Intn(objects)), seq, Value{rng.Float64()}
				op = "write"
			case r < 14:
				// Redelivery: same position, usually the same value.
				if rng.Intn(3) == 0 {
					last.val = Value{rng.Float64()}
				}
				op = "redeliver"
			default:
				cut := head - uint64(rng.Intn(int(min(head, 6))))
				m.PruneBelow(cut)
				ref.PruneBelow(cut)
				op = "prune"
			}
			if op == "write" || op == "redeliver" {
				if last.val == nil {
					continue
				}
				m.WriteAt(last.id, last.seq, last.val)
				ref.WriteAt(last.id, last.seq, last.val)
			}

			if got, want := m.IDs(), ref.IDs(); !got.Equal(want) {
				t.Fatalf("seed %d step %d (%s): IDs %v, reference %v", seed, step, op, got, want)
			}
			if got, want := m.Versions(), ref.Versions(); got != want {
				t.Fatalf("seed %d step %d (%s): Versions %d, reference %d", seed, step, op, got, want)
			}
			if got, want := m.Stored(), ref.stored; got != want {
				t.Fatalf("seed %d step %d (%s): Stored %d, reference %d", seed, step, op, got, want)
			}
			listed := 0
			for id, c := range m.chains {
				if c.listed != (len(c.vs) > 1) {
					t.Fatalf("seed %d step %d (%s): object %d holds %d versions, listed %v", seed, step, op, id, len(c.vs), c.listed)
				}
				if c.listed {
					listed++
				}
			}
			if listed != len(m.multi) {
				t.Fatalf("seed %d step %d (%s): %d chains listed, index holds %d", seed, step, op, listed, len(m.multi))
			}
			for id := ObjectID(0); id < objects; id++ {
				if got, want := m.Known(id), len(ref.chains[id]) > 0; got != want {
					t.Fatalf("seed %d step %d (%s): Known(%d) = %v, reference %v", seed, step, op, id, got, want)
				}
				v1, s1, ok1 := m.Latest(id)
				v2, s2, ok2 := ref.Latest(id)
				if ok1 != ok2 || s1 != s2 || !v1.Equal(v2) {
					t.Fatalf("seed %d step %d (%s): Latest(%d) = %v@%d %v, reference %v@%d %v", seed, step, op, id, v1, s1, ok1, v2, s2, ok2)
				}
				for p := 0; p < probes; p++ {
					at := uint64(rng.Intn(int(head) + 3))
					v1, ok1 := m.ReadAt(id, at)
					v2, ok2 := ref.ReadAt(id, at)
					if ok1 != ok2 || !v1.Equal(v2) {
						t.Fatalf("seed %d step %d (%s): ReadAt(%d, %d) = %v %v, reference %v %v", seed, step, op, id, at, v1, ok1, v2, ok2)
					}
				}
			}
		}
	}
}

// pruneFixture is a store that knows `known` objects and, per round,
// writes `touched` of them once above the install point before pruning
// at it: a client between two install reports.
type pruneFixture struct {
	m       *MVStore
	touched int
	seq     uint64
}

func newPruneFixture(known, touched int) *pruneFixture {
	init := NewState()
	for id := 0; id < known; id++ {
		init.Set(ObjectID(id), Value{0, 0, 1, 0})
	}
	f := &pruneFixture{m: NewMVStore(), touched: touched}
	f.m.Seed(init)
	f.round() // the touched chains grow their two-version arrays once
	return f
}

func (f *pruneFixture) write() {
	for id := 0; id < f.touched; id++ {
		f.seq++
		f.m.WriteAt(ObjectID(id), f.seq, Value{float64(f.seq), 0, 1, 0})
	}
}

func (f *pruneFixture) round() {
	f.write()
	f.m.PruneBelow(f.seq)
}

// TestMVStorePruneAllocatesNothing pins the prune to happen in place and
// the next writes to reuse the slots it rotated past each chain's end: a
// warm round of writes and a prune allocates nothing at all.
func TestMVStorePruneAllocatesNothing(t *testing.T) {
	const touched = 4
	f := newPruneFixture(1024, touched)
	if allocs := testing.AllocsPerRun(200, f.round); allocs != 0 {
		t.Fatalf("a round of %d writes and a prune allocated %.1f times, want 0", touched, allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { f.m.PruneBelow(f.seq) }); allocs != 0 {
		t.Fatalf("PruneBelow with nothing to drop allocated %.1f times", allocs)
	}
	if got := f.m.Versions(); got != 1024 {
		t.Fatalf("Versions after the last prune = %d, want one per object", got)
	}
}

// BenchmarkMVStorePrune: the time of a prune follows the objects written
// since the last one, not the objects known.
func BenchmarkMVStorePrune(b *testing.B) {
	for _, known := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("known=%d/touched=4", known), func(b *testing.B) {
			f := newPruneFixture(known, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.round()
			}
		})
	}
}

// TestMVStoreSlotReuseProperty drives WriteAt (out of order, redelivered,
// values of every length up to a few attributes, nil too) and PruneBelow
// against the version-list reference, comparing every chain version for
// version after each step. The caller's buffer is scribbled over after
// every write, and no two live versions may share a backing array: a
// prune hands its dropped slots to later inserts, which copy into them.
func TestMVStoreSlotReuseProperty(t *testing.T) {
	const objects = 6
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewMVStore(), newRefStore()
		head := uint64(0)
		buf := make(Value, 8)
		var last struct {
			id  ObjectID
			seq uint64
		}
		for step := 0; step < 300; step++ {
			op := "prune"
			switch r := rng.Intn(10); {
			case r < 6:
				head += uint64(rng.Intn(3))
				last.id, last.seq = ObjectID(rng.Intn(objects)), head-uint64(rng.Intn(int(min(head, 5))+1))
				op = "write"
			case r < 8:
				op = "redeliver"
			default:
				cut := head - uint64(rng.Intn(int(min(head, 4))+1))
				m.PruneBelow(cut)
				ref.PruneBelow(cut)
			}
			if op != "prune" {
				v := buf[:rng.Intn(len(buf)+1)]
				for i := range v {
					v[i] = float64(rng.Intn(4))
				}
				if rng.Intn(8) == 0 {
					v = nil
				}
				m.WriteAt(last.id, last.seq, v)
				ref.WriteAt(last.id, last.seq, v)
				for i := range buf {
					buf[i] = -1
				}
			}
			type span struct{ lo, hi uintptr }
			var live []span
			for _, c := range m.chains {
				for _, ver := range c.vs {
					if cap(ver.val) > 0 {
						lo := uintptr(unsafe.Pointer(unsafe.SliceData(ver.val)))
						live = append(live, span{lo, lo + uintptr(cap(ver.val))*8})
					}
				}
			}
			sort.Slice(live, func(i, j int) bool { return live[i].lo < live[j].lo })
			for i := 1; i < len(live); i++ {
				if live[i].lo < live[i-1].hi {
					t.Fatalf("seed %d step %d (%s): two live versions share a backing array", seed, step, op)
				}
			}
			for id := ObjectID(0); id < objects; id++ {
				var got []version
				if c := m.chains[id]; c != nil {
					got = c.vs
				}
				want := ref.chains[id]
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d (%s): object %d holds %d versions, reference %d", seed, step, op, id, len(got), len(want))
				}
				for i := range got {
					if got[i].seq != want[i].seq || !got[i].val.Equal(want[i].val) {
						t.Fatalf("seed %d step %d (%s): object %d version %d = %v@%d, reference %v@%d", seed, step, op, id, i, got[i].val, got[i].seq, want[i].val, want[i].seq)
					}
				}
			}
		}
	}
}
