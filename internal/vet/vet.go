// Package vet implements seve-vet, the engine's domain-specific static
// analyzer. It keeps the one checker a seeded-defect study (DESIGN.md §9)
// showed catching what no test, no stock `go vet` pass and no -race run
// catches:
//
//   - laneaffinity: per-lane engine state is only touched from its
//     lane's worker (//seve:lane-affine, or an int "lane" parameter)
//     or the sequential seal passes (//seve:lane-seal).
//
// The contracts the study found a cheaper gate for are held elsewhere:
// read/write-set confinement by action.CheckAccess under Config.Strict,
// by-value copies of epoch/refcount state by `go vet` copylocks over
// world's noCopy marker, the delivery queue's never-shed-Ordered rule by
// transport.TestSendQueueOrderedNeverShed, a reply's delivery class by
// its derivation from the message type (core's newReply) and the
// type → class assertion in transport.SendQueue.Enqueue, pool ownership by wire's
// outstanding count (asserted zero after every test binary on the
// pooled path) and its use-after-release sentinels, map-order
// independence of the bytes by the pinned digests and the run-twice
// tests, and "a peer that stops reading holds no lock another caller
// needs" by transport's net.Pipe stall tests.
//
// There is no suppression syntax: a finding is fixed, not excused.
package vet

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Finding is one diagnostic.
type Finding struct {
	Pos     token.Position
	Checker string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Checker, f.Message)
}

// Checker is one domain rule run over every analysis unit.
type Checker interface {
	Name() string
	Check(u *Unit, report func(pos token.Pos, format string, args ...any))
}

// AllCheckers returns the production checkers.
func AllCheckers() []Checker {
	return []Checker{laneAffinityChecker{}}
}

// CheckerNames lists the valid checker names.
func CheckerNames() []string {
	var names []string
	for _, c := range AllCheckers() {
		names = append(names, c.Name())
	}
	return names
}

// Run loads every directory and runs every checker, returning the
// findings sorted by position.
func Run(l *Loader, dirs []string) ([]Finding, error) {
	return runDirs(l, dirs, AllCheckers())
}

// dirResult is one directory's outcome, kept per-index so the parallel
// run reassembles deterministic output.
type dirResult struct {
	findings []Finding
	err      error
}

// runDirs fans the directories over GOMAXPROCS workers: package loading
// dominates the wall time and the loader is safe for concurrent loads
// (see load.go), so directories check independently and the findings
// are reassembled in a deterministic order.
func runDirs(l *Loader, dirs []string, checkers []Checker) ([]Finding, error) {
	results := make([]dirResult, len(dirs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(dirs) {
		workers = len(dirs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dirs) {
					return
				}
				units, err := l.LoadDir(dirs[i])
				if err != nil {
					results[i].err = err
					continue
				}
				for _, u := range units {
					results[i].findings = append(results[i].findings, checkUnit(u, checkers)...)
				}
			}
		}()
	}
	wg.Wait()

	var findings []Finding
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		findings = append(findings, r.findings...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Checker < b.Checker
	})
	return findings, nil
}

// checkUnit runs checkers over one unit.
func checkUnit(u *Unit, checkers []Checker) []Finding {
	var out []Finding
	for _, c := range checkers {
		name := c.Name()
		c.Check(u, func(pos token.Pos, format string, args ...any) {
			out = append(out, Finding{
				Pos:     u.Fset.Position(pos),
				Checker: name,
				Message: fmt.Sprintf(format, args...),
			})
		})
	}
	return out
}
