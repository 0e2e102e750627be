package world

import (
	"math/rand"
	"slices"
	"testing"
)

func TestTxReadYourWrites(t *testing.T) {
	s := NewState()
	s.Set(1, Value{1})
	tx := NewTx(StateView{S: s})
	v, ok := tx.Read(1)
	if !ok || v[0] != 1 {
		t.Fatalf("Read = %v, %v", v, ok)
	}
	tx.Write(1, Value{2})
	v, _ = tx.Read(1)
	if v[0] != 2 {
		t.Fatalf("read-your-writes failed: %v", v)
	}
	// The underlying state is untouched until the caller applies writes.
	if sv, _ := s.Get(1); sv[0] != 1 {
		t.Fatal("Tx wrote through to the state")
	}
}

func TestTxTracksSets(t *testing.T) {
	s := NewState()
	s.Set(1, Value{1})
	s.Set(2, Value{2})
	tx := NewTx(StateView{S: s})
	tx.Read(1)
	tx.Read(2)
	tx.Write(3, Value{3})
	if !tx.ReadSet().Equal(NewIDSet(1, 2, 3)) {
		t.Fatalf("ReadSet = %v (writes must be included per RS ⊇ WS)", tx.ReadSet())
	}
	if !tx.WriteSet().Equal(NewIDSet(3)) {
		t.Fatalf("WriteSet = %v", tx.WriteSet())
	}
}

func TestTxWriteCollapsing(t *testing.T) {
	tx := NewTx(StateView{S: NewState()})
	tx.Write(1, Value{1})
	tx.Write(2, Value{2})
	tx.Write(1, Value{10})
	w := tx.Writes()
	if len(w) != 2 {
		t.Fatalf("Writes = %v, want 2 collapsed records", w)
	}
	if w[0].ID != 1 || w[0].Val[0] != 10 {
		t.Fatalf("collapsed write = %v", w[0])
	}
	if w[1].ID != 2 || w[1].Val[0] != 2 {
		t.Fatalf("second write = %v", w[1])
	}
}

func TestTxMissedReads(t *testing.T) {
	tx := NewTx(StateView{S: NewState()})
	if _, ok := tx.Read(7); ok {
		t.Fatal("read of unknown object succeeded")
	}
	if len(tx.Missed()) != 1 || tx.Missed()[0] != 7 {
		t.Fatalf("Missed = %v", tx.Missed())
	}
	// A write makes the object readable within the tx and it is no longer
	// missed on subsequent reads.
	tx.Write(7, Value{1})
	if _, ok := tx.Read(7); !ok {
		t.Fatal("read after write failed")
	}
	if len(tx.Missed()) != 1 {
		t.Fatalf("Missed grew: %v", tx.Missed())
	}
}

func TestTxWriteValueCopied(t *testing.T) {
	tx := NewTx(StateView{S: NewState()})
	v := Value{1}
	tx.Write(1, v)
	v[0] = 99
	if tx.Writes()[0].Val[0] != 1 {
		t.Fatal("Write aliased caller's slice")
	}
}

func TestAtViewReadsAsOfSeq(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 0, Value{0})
	m.WriteAt(1, 10, Value{10})
	tx := NewTx(AtView{M: m, Seq: 5})
	v, ok := tx.Read(1)
	if !ok || v[0] != 0 {
		t.Fatalf("AtView read = %v, %v; want 0 (version at seq 0)", v, ok)
	}
	tx2 := NewTx(AtView{M: m, Seq: 10})
	v, _ = tx2.Read(1)
	if v[0] != 10 {
		t.Fatalf("AtView(10) read = %v, want 10", v)
	}
}

func TestLatestView(t *testing.T) {
	m := NewMVStore()
	m.WriteAt(1, 3, Value{3})
	m.WriteAt(1, 9, Value{9})
	tx := NewTx(LatestView{M: m})
	v, ok := tx.Read(1)
	if !ok || v[0] != 9 {
		t.Fatalf("LatestView read = %v, %v", v, ok)
	}
}

// TestTxReset checks a Reset transaction starts clean and reuses its
// write-log value buffers without corrupting earlier runs' semantics.
func TestTxReset(t *testing.T) {
	s := NewState()
	s.Set(1, Value{10})
	s.Set(2, Value{20})
	tx := NewTx(StateView{S: s})
	tx.Read(1)
	tx.Write(2, Value{21})
	tx.Write(2, Value{22}) // overwrite path
	if v, _ := tx.Read(2); v[0] != 22 {
		t.Fatalf("read-your-writes = %v", v)
	}
	tx.Read(99) // missed

	firstLog := tx.Writes()
	if len(firstLog) != 1 || firstLog[0].Val[0] != 22 {
		t.Fatalf("writes before reset = %v", firstLog)
	}

	tx.Reset(StateView{S: s})
	if len(tx.Writes()) != 0 || len(tx.Missed()) != 0 || len(tx.ReadSet()) != 0 {
		t.Fatal("Reset left state behind")
	}
	if v, ok := tx.Read(2); !ok || v[0] != 20 {
		t.Fatalf("buffered write survived Reset: %v", v)
	}
	tx.Write(1, Value{11, 12})
	ws := tx.Writes()
	if len(ws) != 1 || ws[0].ID != 1 || !ws[0].Val.Equal(Value{11, 12}) {
		t.Fatalf("writes after reset = %v", ws)
	}
	// The recycled record must not alias the state's stored values.
	if v, _ := s.Get(1); v[0] != 10 {
		t.Fatalf("state mutated by scratch tx: %v", v)
	}

	// A third run shrinking the value exercises buffer truncation.
	tx.Reset(StateView{S: s})
	tx.Write(1, Value{7})
	if ws := tx.Writes(); len(ws[0].Val) != 1 || ws[0].Val[0] != 7 {
		t.Fatalf("reused buffer kept stale length: %v", ws[0].Val)
	}
}

// refTx is the map-based transaction Tx replaced: a read set and a write
// index as maps, the write log in first-write order.
type refTx struct {
	view     View
	readSet  map[ObjectID]bool
	writeLog []Write
	writeMap map[ObjectID]int
	missed   []ObjectID
}

func newRefTx(view View) *refTx {
	return &refTx{view: view, readSet: map[ObjectID]bool{}, writeMap: map[ObjectID]int{}}
}

func (r *refTx) Read(id ObjectID) (Value, bool) {
	r.readSet[id] = true
	if i, ok := r.writeMap[id]; ok {
		return r.writeLog[i].Val, true
	}
	v, ok := r.view.Read(id)
	if !ok {
		r.missed = append(r.missed, id)
	}
	return v, ok
}

func (r *refTx) Write(id ObjectID, v Value) {
	r.readSet[id] = true
	if i, ok := r.writeMap[id]; ok {
		r.writeLog[i].Val = v.Clone()
		return
	}
	r.writeMap[id] = len(r.writeLog)
	r.writeLog = append(r.writeLog, Write{ID: id, Val: v.Clone()})
}

func (r *refTx) sets() (rs, ws IDSet) {
	var rids, wids []ObjectID
	for id := range r.readSet {
		rids = append(rids, id)
	}
	for id := range r.writeMap {
		wids = append(wids, id)
	}
	return NewIDSet(rids...), NewIDSet(wids...)
}

// TestTxMatchesMapReference drives one scratch Tx, Reset between runs,
// and a fresh map-based reference per run through the same random reads
// and writes — repeated ids, reads of unknown objects, and runs writing
// more objects than the write log is scanned for — and compares every
// value read, ReadSet, WriteSet, Writes and Missed.
func TestTxMatchesMapReference(t *testing.T) {
	s := NewState()
	for id := ObjectID(0); id < 40; id += 2 { // odd ids are unknown
		s.Set(id, Value{float64(id)})
	}
	view := StateView{S: s}
	rng := rand.New(rand.NewSource(1))
	tx := NewTx(view)
	indexed := 0
	for run := 0; run < 300; run++ {
		tx.Reset(view)
		ref := newRefTx(view)
		// Some runs touch few ids, some more than txScan distinct writes.
		span := 3 + rng.Intn(3*txScan)
		ops := rng.Intn(4 * txScan)
		for op := 0; op < ops; op++ {
			id := ObjectID(rng.Intn(span))
			if rng.Intn(2) == 0 {
				v := Value{float64(run), float64(op)}[:1+rng.Intn(2)]
				tx.Write(id, v)
				ref.Write(id, v)
				continue
			}
			got, ok1 := tx.Read(id)
			want, ok2 := ref.Read(id)
			if ok1 != ok2 || !got.Equal(want) {
				t.Fatalf("run %d op %d: Read(%d) = %v %v, reference %v %v", run, op, id, got, ok1, want, ok2)
			}
		}
		rs, ws := ref.sets()
		if !tx.ReadSet().Equal(rs) || !tx.WriteSet().Equal(ws) {
			t.Fatalf("run %d: sets %v / %v, reference %v / %v", run, tx.ReadSet(), tx.WriteSet(), rs, ws)
		}
		got := tx.Writes()
		if len(got) != len(ref.writeLog) {
			t.Fatalf("run %d: %d writes, reference %d", run, len(got), len(ref.writeLog))
		}
		for i, w := range ref.writeLog {
			if got[i].ID != w.ID || !got[i].Val.Equal(w.Val) {
				t.Fatalf("run %d: write %d = %v, reference %v", run, i, got[i], w)
			}
		}
		if !slices.Equal(tx.Missed(), ref.missed) {
			t.Fatalf("run %d: Missed %v, reference %v", run, tx.Missed(), ref.missed)
		}
		if len(got) > txScan {
			indexed++
		}
	}
	if indexed == 0 {
		t.Fatal("no run wrote more objects than the write log is scanned for")
	}
}
