//go:build race

package wire

// raceEnabled: the race detector makes sync.Pool drop a share of its
// Puts on purpose, so a pool round can allocate.
const raceEnabled = true
