// Package copycheck copies a world.ScratchSet and a world.CountedSet by
// value. It exists to be refused: world.TestNoCopyMarkerIsLive runs
// stock `go vet` over it and requires copylocks to flag both copies,
// which it does only while the types carry their noCopy marker.
package copycheck

import "seve/internal/world"

func forkScratch(s *world.ScratchSet) int {
	cp := *s
	return cp.Len()
}

func forkCounted(c *world.CountedSet) int {
	cp := *c
	return cp.Distinct()
}
