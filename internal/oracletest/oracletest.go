// Package oracletest is the omniscient serial executor Theorem 1 is
// checked against (DESIGN.md §5). It imports only action and world, so
// core's own tests can use it.
package oracletest

import (
	"testing"

	"seve/internal/action"
	"seve/internal/world"
)

// Oracle is one serial replay of a history from the initial world.
type Oracle struct {
	final   *world.State
	results map[uint64]action.Result
	// versions is every value each object took, ascending by position;
	// the initial world is position 0.
	versions map[world.ObjectID][]version
}

type version struct {
	seq uint64
	val world.Value
}

// Replay evaluates the histories once, in order, from init. Several are
// stitched the way a restarted server's recovered prefix and its own log
// are.
func Replay(init *world.State, hists ...[]action.Envelope) *Oracle {
	o := &Oracle{final: init.Clone(), results: make(map[uint64]action.Result), versions: make(map[world.ObjectID][]version)}
	for _, id := range init.IDs() {
		v, _ := init.Get(id)
		o.versions[id] = []version{{0, v}}
	}
	for _, hist := range hists {
		for _, env := range hist {
			res := action.Eval(env.Act, world.StateView{S: o.final})
			for _, w := range res.Writes {
				o.final.Set(w.ID, w.Val)
				o.versions[w.ID] = append(o.versions[w.ID], version{env.Seq, w.Val})
			}
			o.results[env.Seq] = res
		}
	}
	return o
}

// Final is the state after the whole history: what ζS must equal.
func (o *Oracle) Final() *world.State { return o.final }

// Result is the outcome of the action at serial position seq.
func (o *Oracle) Result(seq uint64) (action.Result, bool) {
	r, ok := o.results[seq]
	return r, ok
}

// At is the value of id after every action at or below seq and none
// above; ok is false before the object existed.
func (o *Oracle) At(id world.ObjectID, seq uint64) (v world.Value, ok bool) {
	for _, ver := range o.versions[id] {
		if ver.seq > seq {
			break
		}
		v, ok = ver.val, true
	}
	return v, ok
}

// CheckStable is Theorem 1 on one client's stable store: the newest
// version it holds of each object equals the serial replay as of that
// version's own position. Freshness is not asked for: under the
// Incomplete World Model others may have written the object since.
func (o *Oracle) CheckStable(t testing.TB, label string, cs *world.MVStore) {
	t.Helper()
	for _, id := range cs.IDs() {
		val, seq, _ := cs.Latest(id)
		if want, _ := o.At(id, seq); !val.Equal(want) {
			t.Fatalf("%s ζCS(%d)=%v at seq %d diverges from serial replay %v", label, id, val, seq, want)
		}
	}
}
