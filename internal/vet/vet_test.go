package vet

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// One loader is shared across tests: the standard library is parsed and
// type-checked once, and module dependency packages are cached.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader
}

// wantRx matches the "// want" expectations in corpus files: a regexp
// between backquotes.
var wantRx = regexp.MustCompile("// want `([^`]+)`")

type wantAt struct {
	rx        *regexp.Regexp
	file      string
	line      int
	fulfilled bool
}

// loadWants scans every .go file in dir for want comments.
func loadWants(t *testing.T, dir string) []*wantAt {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantAt
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRx.FindAllStringSubmatch(sc.Text(), -1) {
				rx, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
				}
				wants = append(wants, &wantAt{rx: rx, file: path, line: line})
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// runCorpus checks a testdata package's findings against its want
// comments: every finding must be expected, every expectation met.
func runCorpus(t *testing.T, dir string, checker Checker) {
	t.Helper()
	findings, _, err := runDirs(sharedLoader(t), []string{dir}, []Checker{checker})
	if err != nil {
		t.Fatal(err)
	}
	wants := loadWants(t, dir)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if sameFile(w.file, f.Pos.Filename) && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
				w.fulfilled = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.fulfilled {
			t.Errorf("%s:%d: want %q, got no matching finding", w.file, w.line, w.rx)
		}
	}
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

func TestLockScopeCorpus(t *testing.T) {
	runCorpus(t, "testdata/lockscope", lockscopeChecker{})
}

func TestLaneAffinityCorpus(t *testing.T) {
	runCorpus(t, "testdata/laneaffinity", laneAffinityChecker{})
}

// TestDirectives locks in the suppression machinery: a valid directive
// silences its finding, an unknown checker or missing reason is itself
// reported, and an invalid directive suppresses nothing.
func TestDirectives(t *testing.T) {
	findings, _, err := Run(sharedLoader(t), []string{"testdata/directives"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s@%d", f.Checker, f.Pos.Line))
	}
	// suppressed() produces nothing; unknownChecker and missingReason
	// each produce a directive finding plus the surviving channel-send
	// finding on the next line.
	want := []string{"directive@17", "lockscope@18", "directive@23", "lockscope@24"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("directive findings = %v, want %v\nfull: %v", got, want, findings)
	}
	for _, f := range findings {
		if f.Checker == "lockscope" && !strings.Contains(f.Message, "channel send") {
			t.Errorf("surviving finding changed shape: %s", f)
		}
	}
}

// TestStaleIgnoreAudit locks in the stale-suppression audit: a
// directive that suppresses a live finding survives, one that
// suppresses nothing is reported.
func TestStaleIgnoreAudit(t *testing.T) {
	findings, stale, err := Run(sharedLoader(t), []string{"testdata/staleignore"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if len(stale) != 1 {
		t.Fatalf("stale ignores = %v, want exactly the staleDirective one", stale)
	}
	if got := stale[0]; got.Checker != "lockscope" || !strings.Contains(got.String(), "suppresses nothing") {
		t.Errorf("stale ignore = %v, want a lockscope suppresses-nothing report", got)
	}
}

// TestRepoClean asserts seve-vet exits clean on the real module — zero
// unsuppressed findings and zero stale suppressions, the same gate
// scripts/ci.sh runs.
func TestRepoClean(t *testing.T) {
	l := sharedLoader(t)
	dirs, err := ListPackageDirs(l.ModRoot)
	if err != nil {
		t.Fatal(err)
	}
	findings, stale, err := Run(l, dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not clean: %s", f)
	}
	for _, s := range stale {
		t.Errorf("repo not clean: %s", s)
	}
}
