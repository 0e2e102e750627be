package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// selfCheck is the benchmark measuring its own repeatability the way the
// builder's contract does: every workload runs in two sets of runs, each
// run with another seed, and for every end-to-end metric the table shows
// each set's median and spread — the distance between the first and
// third quartile as a share of the median — and by how much the second
// median is worse than the first, against the metric's bound. Runs are
// child processes because a process holds one workload.
func selfCheck(out io.Writer, runs, seconds int) error {
	if runs < 2 {
		return fmt.Errorf("-runs must be at least 2, got %d", runs)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "selfcheck: 2 sets x %d runs per workload, %d s runs, seeds 1..%d and %d..%d\n", runs, seconds, runs, runs+1, 2*runs)
	fmt.Fprintf(out, "%-11s %-22s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound", "verdict")
	failed := 0
	for _, sp := range specs {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				line, err := childRun(exe, sp.name, int64(set*runs+i+1), seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", sp.name, set*runs+i+1, err)
				}
				for name, m := range line.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case worse > d.Bound || (d.Name != "setup_s" && max(sa, sb) > d.Bound):
				verdict = "FAIL"
				failed++
			case worse > d.Bound/2 || (d.Name != "setup_s" && max(sa, sb) > d.Bound/3):
				verdict = "watch"
			}
			fmt.Fprintf(out, "%-11s %-22s %14.4f %6.2f%% %14.4f %6.2f%% %+7.2f%% %5.1f%%  %s\n",
				sp.name, d.Name, ma, 100*sa, mb, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric x workload pairs outside their bound", failed)
	}
	return nil
}

// childRun runs one workload in a child process and parses its result
// line.
func childRun(exe, workload string, seed int64, seconds int) (*resultLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	return &line, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(xs, n=4) gives — the
// contract's definition, so the table predicts the driver's verdict.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}
