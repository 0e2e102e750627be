package world

// Slab hands out what the actions of one decoded message are made of —
// id sets, values and the action structs themselves — cut from backing
// arrays the whole message shares, so that decoding a batch allocates a
// fixed number of times whatever its envelope count. Each array is sized
// the first time it is asked for, from a bound the decoder took from the
// bodies that can use it: the id array from the bytes of the bodies that
// cut id sets, the value array from the bytes of those that cut values
// (every id and attribute is 8 bytes on the wire), the object arena from
// how many bodies can ask for a struct. A decoder validates a count
// against the bytes it has before it asks, so hostile counts cannot
// inflate an array, and a request past an array's end is allocated on
// its own.
//
// Everything cut from a slab shares its lifetime: one retained action
// keeps its batch's arena and arrays reachable. That is the right trade
// for a batch, whose actions are applied together and dropped together,
// and the reason a slab serves exactly one message and is never pooled.
// A nil *Slab allocates every request on its own.
type Slab struct {
	nIDs, nVals, nObjs int
	ids                []ObjectID
	vals               []float64
	objs               any // *[]T, the arena of the first T that Obj was asked for
}

// NewSlab returns a slab for a message whose bodies can carry no more
// than ids ids and vals attributes, and can ask for no more than objs
// action structs.
func NewSlab(ids, vals, objs int) *Slab { return &Slab{nIDs: ids, nVals: vals, nObjs: objs} }

// IDs returns a zeroed run of n ids with no spare capacity, so appending
// to it cannot reach the next run.
func (s *Slab) IDs(n int) []ObjectID {
	if s == nil {
		return make([]ObjectID, n)
	}
	return carve(&s.ids, s.nIDs, n)
}

// Value returns a zeroed value of n attributes with no spare capacity.
func (s *Slab) Value(n int) Value {
	if s == nil {
		return make(Value, n)
	}
	return carve(&s.vals, s.nVals, n)
}

// Obj returns a zeroed *T cut from the slab's object arena. The first T
// asked for owns the arena, which holds one T per body that can ask; any
// other type, a slab with room for at most one struct (where an arena
// saves nothing), and a request past the arena's end get new(T).
func Obj[T any](s *Slab) *T {
	if s == nil {
		return new(T)
	}
	if s.objs == nil && s.nObjs > 1 {
		arr := make([]T, s.nObjs)
		s.objs = &arr
	}
	arr, ok := s.objs.(*[]T)
	if !ok || len(*arr) == 0 {
		return new(T)
	}
	p := &(*arr)[0]
	*arr = (*arr)[1:]
	return p
}

// carve takes the next n elements of *arr, which is allocated at size
// elements on first use; a request the array cannot meet is allocated on
// its own.
func carve[T any](arr *[]T, size, n int) []T {
	if *arr == nil && n <= size {
		*arr = make([]T, size)
	}
	if len(*arr) < n {
		return make([]T, n)
	}
	out := (*arr)[:n:n]
	*arr = (*arr)[n:]
	return out
}
