package world

// Write is one recorded write: the pair (x, v) of a "write x ← v"
// performed by an action (Algorithm 1, step 4). Completion messages carry
// these records to the server, which installs them into ζS.
type Write struct {
	ID  ObjectID
	Val Value
}

// View is a point-in-time read interface over a store. Actions execute
// against a View through a Tx.
type View interface {
	Read(id ObjectID) (Value, bool)
}

// StateView adapts a State to a View.
type StateView struct{ S *State }

// Read returns the current value of id.
func (v StateView) Read(id ObjectID) (Value, bool) { return v.S.Get(id) }

// AtView reads an MVStore as of a serial position.
type AtView struct {
	M   *MVStore
	Seq uint64
}

// Read returns the value of id as of Seq.
func (v AtView) Read(id ObjectID) (Value, bool) { return v.M.ReadAt(id, v.Seq) }

// LatestView reads the newest versions of an MVStore.
type LatestView struct{ M *MVStore }

// Read returns the newest value of id.
func (v LatestView) Read(id ObjectID) (Value, bool) {
	val, _, ok := v.M.Latest(id)
	return val, ok
}

// Tx is a tracked transaction: it records the ids it reads and buffers
// writes (read-your-writes semantics), so an action's actual accesses can
// be checked against its declared RS(a)/WS(a) and its effect extracted as
// a list of Writes.
//
// Everything is kept in slices a Reset truncates. Reads are logged in
// order with repeats; only ReadSet, which the Strict access check and the
// tests call, sorts and deduplicates them. A write is found by scanning
// the write log while it holds at most txScan records — a move writes
// one — and through a map past that, which only a blind write, carrying
// up to a closure's worth of values, needs. NewTx allocates no map.
type Tx struct {
	view     View
	reads    []ObjectID // every id read or written, repeats kept
	writeLog []Write
	index    map[ObjectID]int // writeLog position by id, once it outgrows txScan
	missed   []ObjectID       // reads of unknown objects
}

// txScan is the longest write log found by scanning.
const txScan = 8

// NewTx returns a transaction reading from view.
func NewTx(view View) *Tx { return &Tx{view: view} }

// Reset re-arms tx for a fresh run against view, keeping its slices,
// write-log value buffers and index for reuse. Any Result or Writes slice
// taken from the previous run aliases those buffers, so the caller must
// have deep-copied what it intends to keep (Result.CloneInto) before
// resetting. The client engine runs every queued action, remote action
// and blind write through one such scratch transaction instead of
// allocating a Tx, and a value clone per write, for each.
func (tx *Tx) Reset(view View) {
	tx.view = view
	if len(tx.writeLog) > txScan {
		clear(tx.index)
	}
	tx.reads = tx.reads[:0]
	tx.writeLog = tx.writeLog[:0]
	tx.missed = tx.missed[:0]
}

// find returns the write-log position of id, or -1.
func (tx *Tx) find(id ObjectID) int {
	if len(tx.writeLog) > txScan {
		if i, ok := tx.index[id]; ok {
			return i
		}
		return -1
	}
	for i := range tx.writeLog {
		if tx.writeLog[i].ID == id {
			return i
		}
	}
	return -1
}

// Read returns the value of id, preferring the transaction's own buffered
// write. The read is recorded. A read of an unknown object returns
// (nil, false) and is recorded as missed — the signal an action uses to
// detect a fatal conflict and abort as a no-op (Section III-A, Bayou-style
// conflict checks).
func (tx *Tx) Read(id ObjectID) (Value, bool) {
	tx.reads = append(tx.reads, id)
	if i := tx.find(id); i >= 0 {
		return tx.writeLog[i].Val, true
	}
	v, ok := tx.view.Read(id)
	if !ok {
		tx.missed = append(tx.missed, id)
	}
	return v, ok
}

// Write buffers v as the new value of id. Per the paper's convention
// RS(a) ⊇ WS(a), a write also records a read. The buffered value is a
// copy of v, stored into a buffer recovered from a previous run when the
// transaction has been Reset.
func (tx *Tx) Write(id ObjectID, v Value) {
	tx.reads = append(tx.reads, id)
	if i := tx.find(id); i >= 0 {
		tx.writeLog[i].Val = append(tx.writeLog[i].Val[:0], v...)
		return
	}
	n := len(tx.writeLog)
	if n < cap(tx.writeLog) {
		// Reslice into a record left over from before the last Reset and
		// overwrite it in place, reusing its value buffer.
		tx.writeLog = tx.writeLog[:n+1]
		w := &tx.writeLog[n]
		w.ID = id
		w.Val = append(w.Val[:0], v...)
	} else {
		tx.writeLog = append(tx.writeLog, Write{ID: id, Val: v.Clone()})
	}
	if n == txScan {
		// The log just outgrew scanning: index all of it.
		if tx.index == nil {
			tx.index = make(map[ObjectID]int)
		}
		for i, w := range tx.writeLog {
			tx.index[w.ID] = i
		}
	} else if n > txScan {
		tx.index[id] = n
	}
}

// ReadSet returns the ids read (including written ids), sorted.
func (tx *Tx) ReadSet() IDSet { return NewIDSet(tx.reads...) }

// WriteSet returns the ids written, sorted.
func (tx *Tx) WriteSet() IDSet {
	ids := make([]ObjectID, len(tx.writeLog))
	for i, w := range tx.writeLog {
		ids[i] = w.ID
	}
	return AsIDSet(ids)
}

// Writes returns the buffered writes in first-write order, with later
// writes to the same object collapsed into the first record.
func (tx *Tx) Writes() []Write { return tx.writeLog }

// Missed returns ids whose reads found no value, in read order.
func (tx *Tx) Missed() []ObjectID { return tx.missed }
