// Corpus for the rwset checker. Lines with a `// want` comment must be
// flagged with a message matching the regexp; everything else must stay
// clean.
package rwtest

import "seve/internal/world"

// good confines every Tx access to its declared sets: reads range the
// declared read set, the write targets the declared write set, and the
// WS ⊆ RS convention makes the written id readable too.
type good struct {
	target world.ObjectID
	rs     world.IDSet
}

func (a *good) ReadSet() world.IDSet  { return a.rs }
func (a *good) WriteSet() world.IDSet { return world.NewIDSet(a.target) }

func (a *good) Apply(tx *world.Tx) bool {
	for _, id := range a.rs {
		if _, ok := tx.Read(id); !ok {
			return false
		}
	}
	v, _ := tx.Read(a.target)
	tx.Write(a.target, v)
	return true
}

// flow derives its target through locals, a conversion, and a loop —
// still traceable to the declared sets.
type flow struct {
	rs world.IDSet
}

func (f *flow) ReadSet() world.IDSet  { return f.rs }
func (f *flow) WriteSet() world.IDSet { return f.ReadSet() }

func (f *flow) Apply(tx *world.Tx) bool {
	worst := world.ObjectID(0)
	for _, id := range f.rs {
		worst = id
	}
	cur := worst
	if _, ok := tx.Read(cur); !ok {
		return false
	}
	tx.Write(cur, world.Value{1})
	return true
}

// evalOnly checks the Eval spelling of the entry point.
type evalOnly struct {
	src world.ObjectID
}

func (e *evalOnly) ReadSet() world.IDSet  { return world.NewIDSet(e.src) }
func (e *evalOnly) WriteSet() world.IDSet { return nil }

func (e *evalOnly) Eval(tx *world.Tx) bool {
	_, ok := tx.Read(e.src)
	return ok
}

// rogue escapes its declaration three ways: an undeclared field, id
// arithmetic, and arithmetic laundered through a local.
type rogue struct {
	target world.ObjectID
	other  world.ObjectID
}

func (r *rogue) ReadSet() world.IDSet  { return world.NewIDSet(r.target) }
func (r *rogue) WriteSet() world.IDSet { return world.NewIDSet(r.target) }

func (r *rogue) Apply(tx *world.Tx) bool {
	tx.Read(r.other)          // want `reads object id "·\.other" not traceable`
	tx.Write(r.target+1, nil) // want `writes object id "·\.target\+1" not traceable`
	shifted := r.target + 1000
	tx.Write(shifted, nil) // want `writes object id "shifted" not traceable`
	return true
}

// readonly declares no write set, so reading is fine and writing is not
// — even to an id the read set does declare.
type readonly struct {
	src world.ObjectID
}

func (r *readonly) ReadSet() world.IDSet  { return world.NewIDSet(r.src) }
func (r *readonly) WriteSet() world.IDSet { return nil }

func (r *readonly) Apply(tx *world.Tx) bool {
	if _, ok := tx.Read(r.src); !ok {
		return false
	}
	tx.Write(r.src, world.Value{0}) // want `writes object id "·\.src" not traceable`
	return true
}

// inline holds its one-object write set in the action itself and returns
// a slice of the array: the array's element is as declared as a slice's,
// a sibling field is not.
type inline struct {
	ws    [1]world.ObjectID
	other [1]world.ObjectID
	rs    world.IDSet
}

func (a *inline) ReadSet() world.IDSet  { return a.rs }
func (a *inline) WriteSet() world.IDSet { return a.ws[:] }

func (a *inline) Apply(tx *world.Tx) bool {
	self := a.ws[0]
	if _, ok := tx.Read(self); !ok {
		return false
	}
	tx.Write(self, world.Value{1})
	tx.Write(a.other[0], nil) // want `writes object id "·\.other\[0\]" not traceable`
	return true
}
