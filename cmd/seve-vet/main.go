// Command seve-vet is the engine's domain-specific static analyzer. It
// enforces the one contract a seeded-defect study (DESIGN.md §9) showed
// no test, stock `go vet` pass or -race run catching: lane-partitioned
// state touched only from its lane's worker or the sequential seal
// passes (laneaffinity). Lock holds, pool ownership, map-order
// independence and reply delivery classes, once checked here too, are
// held by tests and a derivation (transport's net.Pipe stall tests,
// wire's outstanding count, the pinned digests, the run-twice tests,
// core's type-derived classes that SendQueue.Enqueue asserts).
//
// Usage:
//
//	go run ./cmd/seve-vet ./...
//	go run ./cmd/seve-vet ./internal/core
//
// Packages are named by directory pattern; the trailing "..." wildcard
// matches the go tool's. In-package and external test files are
// analyzed alongside the code they test. There are no flags and no
// suppression syntax: findings are printed one per line.
//
// Exit status is 1 when there is a finding, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"seve/internal/vet"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: seve-vet [packages]\ncheckers: %s\n", strings.Join(vet.CheckerNames(), ", "))
	}
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "seve-vet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	loader, err := vet.NewLoader(".")
	if err != nil {
		fail(err)
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fail(err)
	}
	findings, err := vet.Run(loader, dirs)
	if err != nil {
		fail(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// expandPatterns turns go-style package patterns into directories.
func expandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			sub, err := vet.ListPackageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		add(filepath.Clean(p))
	}
	return dirs, nil
}
