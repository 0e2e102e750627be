// Package world implements the world-state database underlying the
// action-based protocols of Section III. The world state is "a database
// of objects" whose attributes are high-dimensional tuples (Section I);
// clients keep an optimistic version ζCO and a stable version ζCS of it,
// and the server keeps the authoritative state ζS.
package world

import "sort"

// ObjectID identifies an object in the world state.
type ObjectID uint64

// IDSet is a sorted, duplicate-free set of object IDs. Read and write
// sets — RS(a) and WS(a) in the paper — are IDSets, and Algorithm 6's
// transitive closure is a loop of IDSet intersections, unions and
// subtractions, so these operations are kept allocation-light.
type IDSet []ObjectID

// NewIDSet returns the set of the given ids, sorted and deduplicated.
func NewIDSet(ids ...ObjectID) IDSet {
	s := make(IDSet, len(ids))
	copy(s, ids)
	return AsIDSet(s)
}

// AsIDSet turns ids into a set in place, taking the slice over. A set
// that crossed the wire arrives strictly ascending and is returned as it
// stands; anything else is sorted and deduplicated.
func AsIDSet(ids []ObjectID) IDSet {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			out := ids[:1]
			for _, id := range ids[1:] {
				if id != out[len(out)-1] {
					out = append(out, id)
				}
			}
			return out
		}
	}
	return ids
}

// Len reports the number of ids in the set.
func (s IDSet) Len() int { return len(s) }

// Contains reports whether id is in the set.
func (s IDSet) Contains(id ObjectID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Clone returns an independent copy of the set.
func (s IDSet) Clone() IDSet {
	if s == nil {
		return nil
	}
	c := make(IDSet, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two sets contain the same ids.
func (s IDSet) Equal(o IDSet) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the two sets share any id. This is the hot
// test of Algorithm 6 (WS(aj) ∩ S ≠ ∅) and Algorithm 7 (S ∩ WS(Aj) ≠ ∅);
// a linear merge over the sorted slices avoids any allocation.
func (s IDSet) Intersects(o IDSet) bool {
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			return true
		case s[i] < o[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Union returns s ∪ o as a new set.
func (s IDSet) Union(o IDSet) IDSet {
	out := make(IDSet, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, o[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Subtract returns s \ o as a new set.
func (s IDSet) Subtract(o IDSet) IDSet {
	out := make(IDSet, 0, len(s))
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(o) || s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] == o[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

// Intersect returns s ∩ o as a new set.
func (s IDSet) Intersect(o IDSet) IDSet {
	var out IDSet
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < o[j]:
			i++
		default:
			j++
		}
	}
	return out
}
