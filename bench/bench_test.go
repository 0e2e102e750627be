package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"seve/internal/manhattan"
)

func TestQuietSecondsTakesFastestPassPerSlice(t *testing.T) {
	// Three passes of six rounds; slices of two rounds. Each slice has a
	// different quiet pass, so no single pass gives the estimate.
	passes := [][]float64{
		{1, 1, 5, 5, 9, 9},
		{4, 4, 2, 2, 9, 9},
		{7, 7, 6, 6, 3, 3},
	}
	if got := quietSeconds(passes, 2); got != 2+4+6 {
		t.Fatalf("quiet time %v, want 12", got)
	}
	// A ragged last slice is still merged.
	if got := quietSeconds(passes, 4); got != (1+1+5+5)+(3+3) {
		t.Fatalf("quiet time with a short last slice %v, want 18", got)
	}
	// The minimum is per slice, not per round: one slice covering the
	// whole phase is the fastest pass.
	if got := quietSeconds(passes, 6); got != 4+4+2+2+9+9 {
		t.Fatalf("quiet time with one slice %v, want 30", got)
	}
	if got := quietSeconds(nil, 2); got != 0 {
		t.Fatalf("quiet time of no passes %v", got)
	}
}

func TestRoundsPerSlice(t *testing.T) {
	cases := []struct {
		rounds int
		wall   time.Duration
		want   int
	}{
		{1500, 2 * time.Second, 75}, // 1.33 ms rounds
		{22, 2 * time.Second, 1},    // rounds longer than a slice
		{10, 50 * time.Millisecond, 10},
		{0, time.Second, 1},
	}
	for _, c := range cases {
		if got := roundsPerSlice(c.rounds, c.wall); got != c.want {
			t.Errorf("roundsPerSlice(%d, %v) = %d, want %d", c.rounds, c.wall, got, c.want)
		}
	}
}

func TestMinPerSampleAndPercentile(t *testing.T) {
	merged := minPerSample([][]float64{{5, 2, 9, 4}, {3, 8, 1, 4}})
	want := []float64{3, 2, 1, 4}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged samples %v, want %v", merged, want)
		}
	}
	// Nearest rank: the median of four is the second smallest.
	if got := percentile(merged, 50); got != 2 {
		t.Fatalf("p50 %v, want 2", got)
	}
	if got := percentile(merged, 99); got != 4 {
		t.Fatalf("p99 %v, want 4", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("p50 of nothing %v", got)
	}
}

func TestCheckDeterminismNamesTheField(t *testing.T) {
	a := counts{Submitted: 10, Commits: 10, DownBytes: 400}
	b := a
	if err := checkDeterminism("burst", []counts{a, b, a}); err != nil {
		t.Fatalf("identical passes: %v", err)
	}
	b.DownBytes = 401
	err := checkDeterminism("burst", []counts{a, a, b})
	if err == nil {
		t.Fatal("a pass that moved one more byte went unnoticed")
	}
	for _, want := range []string{"burst", "pass 3", "DownBytes", "400", "401"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestFailedOperationAccounting(t *testing.T) {
	c := counts{Submitted: 100, Commits: 90, Drops: 6}
	if c.unresolved() != 4 {
		t.Fatalf("unresolved %d, want 4", c.unresolved())
	}
	// Drops and unresolved submissions both failed from the user's seat.
	if c.failed() != 10 {
		t.Fatalf("failed %d, want 10", c.failed())
	}
	phase := counts{Submitted: 150, Commits: 140, Drops: 6, UpBytes: 900}.sub(c)
	if phase != (counts{Submitted: 50, Commits: 50, UpBytes: 900}) {
		t.Fatalf("phase counts %+v", phase)
	}
	if ratio(1, 0) != 0 {
		t.Fatal("a ratio over nothing must be 0, JSON has no NaN")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{op: opCompletion, parent: -1, start: 0, end: 100},
		{op: opJournal, parent: 0, start: 20, end: 50},
		{op: opJournal, parent: 0, start: 60, end: 70},
		{op: opEnqueue, parent: -1, start: 100, end: 130},
	}}
	self, calls := tr.selfTimes()
	if self[opCompletion] != 60 || self[opJournal] != 40 || self[opEnqueue] != 30 {
		t.Fatalf("self times completion %v journal %v enqueue %v", self[opCompletion], self[opJournal], self[opEnqueue])
	}
	if calls[opJournal] != 2 {
		t.Fatalf("journal calls %d", calls[opJournal])
	}
	var buf bytes.Buffer
	if share := tr.budget(&buf, 1, 130); share != 1 {
		t.Fatalf("spans cover %v of the traced time, want all of it\n%s", share, buf.String())
	}
	// A nil tracer is the untraced pass.
	var off *tracer
	off.begin(opTick, 0)
	off.end()
}

func TestSpreadIsPythonsQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("spread %v, want 1", got)
	}
	if median([]float64{3, 1, 2}) != 2 || median(xs) != 5.5 {
		t.Fatal("median")
	}
}

// TestManifestMatchesCheckedIn keeps BENCHMARK.json, which the driver
// reads, equal to the tables the benchmark prints from.
func TestManifestMatchesCheckedIn(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
}

// TestManifestWithinContract checks the limits the driver refuses a
// manifest over.
func TestManifestWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(specs) < 2 || len(specs) > 8 {
		t.Errorf("%d workloads", len(specs))
	}
	for _, sp := range specs {
		check(sp.name)
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why is %d characters", sp.name, len(sp.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
	if len(manifest()) > 64<<10 {
		t.Error("manifest over 64 KiB")
	}
}

// TestChurnPassesTheGate runs the workload with the most driver logic —
// leave, join and resume every round — for a second's worth of ops, so
// tier 1 notices when an engine change breaks the benchmark. Only one
// test may build a world: wire.RegisterKind accepts one registration
// per process.
func TestChurnPassesTheGate(t *testing.T) {
	sp := specByName("churn64")
	w, init := sp.world(1)
	manhattan.RegisterWire(w)
	a, err := runPass(sp, w, init, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPass(sp, w, init, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeterminism("pass", []counts{a.counts, b.counts}); err != nil {
		t.Fatal(err)
	}
	if a.counts.failed() != 0 || a.counts.Cycles == 0 || a.burstCounts.Commits == 0 || len(a.solo) == 0 {
		t.Fatalf("pass counted %+v with %d solo samples", a.counts, len(a.solo))
	}
	vals := endToEndValues([]*passResult{a, b}, 0)
	line, err := pick(endToEnd, vals)
	if err != nil {
		t.Fatal(err)
	}
	for n, m := range line {
		if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", n, m.Value)
		}
	}
	// The traced pass must repeat the untraced one's counts and explain
	// where the time went.
	tr := newTracer(1 << 16)
	c, err := runPass(sp, w, init, 1, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDeterminism("traced", []counts{a.counts, c.counts}); err != nil {
		t.Fatal(err)
	}
	layers, err := layerValues(a, c, tr, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The socket probe and the calibration loop are measured by the run,
	// not the pass.
	for _, n := range []string{"transport.sock_commit_p50_us", "transport.sock_commits_per_s", "host.calib_ms"} {
		layers[n] = 0
	}
	if _, err := pick(perLayer, layers); err != nil {
		t.Fatal(err)
	}
	if layers["core.session_us"] <= 0 || layers["client.join_us"] <= 0 {
		t.Errorf("churn left no session time: %v / %v", layers["core.session_us"], layers["client.join_us"])
	}
}
