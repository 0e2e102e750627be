// Package wiretest holds the pool-balance check that the test binaries
// of the packages on the pooled delivery path run after their tests:
// every pooled buffer and frame a test took must be back in the pool
// once the test binary is done (DESIGN.md §8).
package wiretest

import (
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"seve/internal/wire"
)

// settle bounds how long Main waits for goroutines a test stopped but
// did not join (a writer pump that is returning, a committer that is
// draining) to hand their pooled values back. A leak never settles.
const settle = 2 * time.Second

// Main runs the tests, then exits non-zero if wire.Outstanding is not
// zero: some test leaked a buffer or a frame, or left running what holds
// one. Use it as the package's TestMain:
//
//	func TestMain(m *testing.M) { wiretest.Main(m) }
//
// A fuzz worker (go test -fuzz) skips the check: the fuzz targets run
// in workers, whose exit status the coordinating process does not read,
// so the check there could only delay the worker's exit.
func Main(m *testing.M) {
	code := m.Run()
	if worker := flag.Lookup("test.fuzzworker"); worker != nil && worker.Value.String() == "true" {
		os.Exit(code)
	}
	if code == 0 {
		if bufs, frames := balance(); bufs != 0 || frames != 0 {
			fmt.Fprintf(os.Stderr, "pool balance: %d buffers and %d frames outstanding after the tests\n", bufs, frames)
			code = 1
		}
	}
	os.Exit(code)
}

// balance polls the pool's outstanding count until it reads zero or the
// settle time runs out.
func balance() (bufs, frames int64) {
	deadline := time.Now().Add(settle)
	for {
		bufs, frames = wire.Outstanding()
		if bufs == 0 && frames == 0 || time.Now().After(deadline) {
			return bufs, frames
		}
		time.Sleep(10 * time.Millisecond)
	}
}
