package vet

import (
	"bufio"
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
	findings, err := runDirs(sharedLoader(t), []string{dir}, []Checker{checker})
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

func TestLaneAffinityCorpus(t *testing.T) {
	runCorpus(t, "testdata/laneaffinity", laneAffinityChecker{})
}

// TestRepoClean asserts seve-vet exits clean on the real module — zero
// findings, the same gate scripts/ci.sh runs.
func TestRepoClean(t *testing.T) {
	l := sharedLoader(t)
	dirs, err := ListPackageDirs(l.ModRoot)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(l, dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not clean: %s", f)
	}
}
