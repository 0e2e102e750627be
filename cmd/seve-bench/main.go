// Command seve-bench regenerates the paper's evaluation artifacts
// (Section V of "Scalability for Virtual Worlds", ICDE 2009): one table
// per figure, printed to stdout.
//
// Usage:
//
//	seve-bench -experiment fig6          # one artifact
//	seve-bench -experiment all -quick    # whole battery at reduced scale
//
// Experiments: tablei, fig6, fig7, fig8, fig9, fig10, table2, limit
// (Section V-B1's single-server capacity, on the real core.Server), plus
// the extensions protocols, zoning, hybrid, adversarial (superseding
// delivery queue vs drop-at-cap under flash-crowd, trading-storm, and
// interest-churn stalls), ablation-omega, ablation-threshold, ablation-gc
// (client versions held vs stored; ablations = all three), and all.
//
// seve-bench regenerates the paper's figures in simulation; what this
// implementation itself costs, layer by layer, is measured by
// `go run ./bench` (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"seve/internal/experiments"
	"seve/internal/metrics"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "artifact to regenerate: tablei|fig6|fig7|fig8|fig9|fig10|table2|limit|protocols|zoning|hybrid|adversarial|ablations|ablation-omega|ablation-threshold|ablation-gc|all")
		quick      = flag.Bool("quick", false, "reduced sweeps and move counts (seconds instead of minutes)")
		verbose    = flag.Bool("v", false, "print per-run progress")
		csv        = flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	)
	flag.Parse()

	opt := experiments.Options{Quick: *quick}
	if *verbose {
		opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	type gen struct {
		name string
		run  func(experiments.Options) (*metrics.Table, error)
	}
	gens := []gen{
		{"tablei", func(experiments.Options) (*metrics.Table, error) { return experiments.TableI(), nil }},
		{"fig6", experiments.Fig6},
		{"fig7", experiments.Fig7},
		{"fig8", experiments.Fig8},
		{"fig9", experiments.Fig9},
		{"fig10", experiments.Fig10},
		{"table2", experiments.Table2},
		{"limit", experiments.Limit},
		{"protocols", experiments.Protocols},
		{"zoning", experiments.Zoning},
		{"hybrid", experiments.Hybrid},
		{"adversarial", experiments.Adversarial},
		{"ablation-omega", experiments.AblationOmega},
		{"ablation-threshold", experiments.AblationThreshold},
		{"ablation-gc", experiments.AblationGC},
	}

	ran := false
	for _, g := range gens {
		matches := *experiment == "all" || *experiment == g.name ||
			(*experiment == "ablations" && strings.HasPrefix(g.name, "ablation-"))
		if !matches {
			continue
		}
		ran = true
		table, err := g.run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seve-bench: %s: %v\n", g.name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", table.Title, table.CSV())
		} else {
			fmt.Println(table.String())
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "seve-bench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}
