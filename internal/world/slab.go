package world

// Slab hands out id sets and values cut from two shared backing arrays,
// so that decoding a message allocates once per array instead of once per
// set and once per value. words is an upper bound on what the whole
// message can ask for — its payload length in 8-byte words, every id and
// every attribute being 8 bytes on the wire — and sizes each array the
// first time it is needed; a decoder validates a count against the bytes
// it has before it asks, so hostile counts cannot inflate it.
//
// Everything cut from a slab shares its lifetime: one retained id set
// keeps the whole array reachable. That is the right trade for a batch,
// whose actions are applied together and dropped together, and the reason
// a slab serves exactly one message and is never pooled. A nil *Slab
// allocates every request on its own.
type Slab struct {
	words int
	ids   []ObjectID
	vals  []float64
}

// NewSlab returns a slab for a message whose ids and attributes cannot
// number more than words.
func NewSlab(words int) *Slab { return &Slab{words: words} }

// IDs returns a zeroed run of n ids with no spare capacity, so appending
// to it cannot reach the next run.
func (s *Slab) IDs(n int) []ObjectID {
	if s == nil {
		return make([]ObjectID, n)
	}
	return carve(&s.ids, s.words, n)
}

// Value returns a zeroed value of n attributes with no spare capacity.
func (s *Slab) Value(n int) Value {
	if s == nil {
		return make(Value, n)
	}
	return carve(&s.vals, s.words, n)
}

// carve takes the next n elements of *arr, which is allocated at words
// elements on first use; a request the array cannot meet is allocated on
// its own.
func carve[T any](arr *[]T, words, n int) []T {
	if *arr == nil && n <= words {
		*arr = make([]T, words)
	}
	if len(*arr) < n {
		return make([]T, n)
	}
	out := (*arr)[:n:n]
	*arr = (*arr)[n:]
	return out
}
