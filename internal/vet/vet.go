// Package vet implements seve-vet, the engine's domain-specific static
// analyzer. It keeps the checkers a seeded-defect study (DESIGN.md §9)
// showed catching what no test, no stock `go vet` pass and no -race run
// catches:
//
//   - lockscope: no blocking operation (channel ops, frame/net I/O,
//     sync waits) inside a sync.Mutex/RWMutex region — an abstract
//     interpretation of lock regions over the statement tree.
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
// pooled path) and its use-after-release sentinels, and map-order
// independence of the bytes by the pinned digests and the run-twice
// tests.
//
// Audited exceptions are allowed with a directive on the offending line
// or the line above it:
//
//	//seve:vet-ignore <checker> <reason>
//
// The reason is mandatory: an unexplained suppression is itself
// flagged, and Run reports directives that no longer suppress anything
// so suppressions cannot outlive the code they excused.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
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
	return []Checker{lockscopeChecker{}, laneAffinityChecker{}}
}

// CheckerNames lists the valid checker names.
func CheckerNames() []string {
	var names []string
	for _, c := range AllCheckers() {
		names = append(names, c.Name())
	}
	return names
}

// ignoreDirective is one parsed //seve:vet-ignore comment. used is set
// when the directive suppresses at least one raw finding, the input to
// the stale-suppression audit.
type ignoreDirective struct {
	checker string
	file    string
	line    int
	col     int
	used    bool
}

// StaleIgnore is a //seve:vet-ignore directive that no longer
// suppresses anything: the code it excused was fixed or moved, and the
// suppression is rotting in place.
type StaleIgnore struct {
	Pos     token.Position
	Checker string
}

func (s StaleIgnore) String() string {
	return fmt.Sprintf("%s: stale //seve:vet-ignore %s suppresses nothing; delete it", s.Pos, s.Checker)
}

const directivePrefix = "//seve:vet-ignore"

// parseDirectives scans a unit's comments for ignore directives.
// Malformed directives (missing checker or reason, unknown checker) are
// reported as findings of the pseudo-checker "directive" so they cannot
// rot silently.
func parseDirectives(u *Unit, known map[string]bool, report func(pos token.Pos, format string, args ...any)) []*ignoreDirective {
	var dirs []*ignoreDirective
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(c.Pos(), "malformed directive: want //seve:vet-ignore <checker> <reason>")
					continue
				}
				if !known[fields[0]] {
					report(c.Pos(), "directive names unknown checker %q (known: %s)",
						fields[0], strings.Join(CheckerNames(), ", "))
					continue
				}
				pos := u.Fset.Position(c.Pos())
				dirs = append(dirs, &ignoreDirective{checker: fields[0], file: pos.Filename, line: pos.Line, col: pos.Column})
			}
		}
	}
	return dirs
}

// suppressed reports whether a finding is covered by a directive: same
// checker, same file, and the directive sits on the finding's line or
// the line directly above it. Matching directives are marked used for
// the stale audit.
func suppressed(f Finding, dirs []*ignoreDirective) bool {
	hit := false
	for _, d := range dirs {
		if d.checker == f.Checker && d.file == f.Pos.Filename &&
			(d.line == f.Pos.Line || d.line == f.Pos.Line-1) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// Run loads every directory and runs every checker, returning the
// findings that survive the //seve:vet-ignore directives and the
// directives that suppressed nothing, each sorted by position.
func Run(l *Loader, dirs []string) ([]Finding, []StaleIgnore, error) {
	return runDirs(l, dirs, AllCheckers())
}

// dirResult is one directory's outcome, kept per-index so the parallel
// run reassembles deterministic output.
type dirResult struct {
	findings []Finding
	stale    []StaleIgnore
	err      error
}

// runDirs fans the directories over GOMAXPROCS workers: package loading
// dominates the wall time and the loader is safe for concurrent loads
// (see load.go), so directories check independently and the findings
// are reassembled in a deterministic order.
func runDirs(l *Loader, dirs []string, checkers []Checker) ([]Finding, []StaleIgnore, error) {
	known := make(map[string]bool)
	for _, c := range AllCheckers() {
		known[c.Name()] = true
	}

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
					fs, st := checkUnit(u, checkers, known)
					results[i].findings = append(results[i].findings, fs...)
					results[i].stale = append(results[i].stale, st...)
				}
			}
		}()
	}
	wg.Wait()

	var findings []Finding
	var stale []StaleIgnore
	for _, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		findings = append(findings, r.findings...)
		stale = append(stale, r.stale...)
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
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return findings, stale, nil
}

// checkUnit runs checkers over one unit, filters out suppressed
// findings, and reports directives that suppressed nothing.
func checkUnit(u *Unit, checkers []Checker, known map[string]bool) ([]Finding, []StaleIgnore) {
	var raw []Finding
	collect := func(name string) func(pos token.Pos, format string, args ...any) {
		return func(pos token.Pos, format string, args ...any) {
			raw = append(raw, Finding{
				Pos:     u.Fset.Position(pos),
				Checker: name,
				Message: fmt.Sprintf(format, args...),
			})
		}
	}
	dirs := parseDirectives(u, known, collect("directive"))
	for _, c := range checkers {
		c.Check(u, collect(c.Name()))
	}
	var out []Finding
	for _, f := range raw {
		if f.Checker != "directive" && suppressed(f, dirs) {
			continue
		}
		out = append(out, f)
	}
	var stale []StaleIgnore
	for _, d := range dirs {
		if !d.used {
			stale = append(stale, StaleIgnore{
				Pos:     token.Position{Filename: d.file, Line: d.line, Column: d.col},
				Checker: d.checker,
			})
		}
	}
	return out, stale
}

// funcBodies visits every function or method body in the unit, handing
// the visitor the declaration for receiver/name context.
func funcBodies(u *Unit, visit func(fd *ast.FuncDecl)) {
	for _, f := range u.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}
