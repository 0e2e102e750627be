// Command bench is the repository's benchmark (BENCHMARK.json at the
// root names it). One invocation runs one workload: it drives the whole
// journey of an action — manhattan move, core.Client.Submit, wire
// encode/decode, the engine from shard.NewEngine, wire.NewFrameCached,
// transport.SendQueue, wire.Decode, core.Client.HandleMsg, the
// completion back up, the install and, when attached, durable.Store —
// in one process on one goroutine, skipping only the kernel socket.
// README.md explains every rule the driver follows and why.
//
//	go run ./bench -workload walk64 -seed 1             end-to-end metrics
//	go run ./bench -workload walk64 -seed 1 -trace 1    per-layer metrics and the layer budget
//	go run ./bench -selfcheck                           two sets of runs per workload, compared
//	go run ./bench -manifest                            BENCHMARK.json from the tables in metrics.go
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"seve/internal/manhattan"
	"seve/internal/world"
)

// passes is how many times a run repeats the identical op sequence; the
// quiet-time estimators take the fastest reading of each piece. The
// minimum of more readings is lower, so the number is fixed: a run that
// added passes until its readings agreed never stopped on this host.
const passes = 5

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Int64("seed", 1, "world seed: wall and avatar placement, hence every move")
		seconds   = fs.Int("seconds", refSeconds, "run length the op counts are scaled to")
		trace     = fs.Int("trace", 0, "1 runs one traced pass and reports the per-layer metrics")
		spans     = fs.String("spans", "", "with -trace 1, write the raw spans to this CSV file")
		selfcheck = fs.Bool("selfcheck", false, "run every workload in two sets and compare their medians against the bounds")
		runs      = fs.Int("runs", 5, "with -selfcheck, runs per set")
		printMan  = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printMan:
		stdout.Write(manifest())
		return 0
	case *selfcheck:
		if err := selfCheck(stdout, *runs, *seconds); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	sp := specByName(*name)
	if sp == nil || *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -workload must be one of %s and -seconds at least 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	line, err := runWorkload(sp, *seed, *seconds, *trace != 0, *spans, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if line == nil {
			return 1
		}
	}
	b, merr := json.Marshal(line)
	if merr != nil {
		fmt.Fprintln(stderr, "bench:", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

// runWorkload measures one workload and prints the human-readable
// report. A correctness failure still returns a result line, with
// correct false, next to the error.
func runWorkload(sp *spec, seed int64, seconds int, traced bool, spansPath string, out io.Writer) (*resultLine, error) {
	// Per-core capacity, on one processor: see README.md, driver rules.
	runtime.GOMAXPROCS(1)
	pinToOneCPU()
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	calib := []time.Duration{calibrate()}
	start := time.Now()
	w, init := sp.world(seed)
	// One world per process: wire.RegisterKind panics on a second
	// registration, which is why a process runs a single workload.
	manhattan.RegisterWire(w)
	worldBuild := time.Since(start)

	var (
		results []*passResult
		vals    map[string]float64
		defs    []metricDef
		err     error
	)
	if traced {
		results, vals, err = tracedRun(sp, w, init, seconds, spansPath, out)
		defs = perLayer
	} else {
		results, err = untracedRun(sp, w, init, seconds)
		if err == nil {
			vals = endToEndValues(results, worldBuild)
		}
		defs = endToEnd
	}
	calib = append(calib, calibrate())
	fingerprint(out, sp, seed, seconds, traced, worldBuild, calib, results)
	if err != nil {
		return &resultLine{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}, err
	}
	if traced {
		vals["host.calib_ms"] = float64(calib[0]+calib[1]) / 2e6
	}
	metrics, err := pick(defs, vals)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %16.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	c := results[len(results)-1].counts
	return &resultLine{Correct: true, Attempted: c.Submitted, Failed: c.failed(), Metrics: metrics}, nil
}

// untracedRun is the measurement proper: the same op sequence passes
// times, each against a fresh engine and fresh clients.
func untracedRun(sp *spec, w *manhattan.World, init *world.State, seconds int) ([]*passResult, error) {
	var results []*passResult
	for n := 0; n < passes; n++ {
		runtime.GC()
		res, err := runPass(sp, w, init, seconds, n, nil)
		results = append(results, res)
		if err != nil {
			return results, fmt.Errorf("pass %d: %w", n+1, err)
		}
	}
	total, burst := make([]counts, passes), make([]counts, passes)
	for i, r := range results {
		total[i], burst[i] = r.counts, r.burstCounts
	}
	if err := errors.Join(checkDeterminism("pass", total), checkDeterminism("burst", burst)); err != nil {
		return results, err
	}
	return results, nil
}

// runPass runs pass n and returns what it measured, detached from the
// pass so the engine it built can be collected before the next one.
func runPass(sp *spec, w *manhattan.World, init *world.State, seconds, n int, tr *tracer) (*passResult, error) {
	p := newPass(sp, w, init, seconds, tr)
	err := p.run(n)
	res := p.res
	return &res, err
}

// endToEndValues derives the end-to-end metrics from the passes.
func endToEndValues(results []*passResult, worldBuild time.Duration) map[string]float64 {
	var srv, cli, solo [][]float64
	var setups, mallocs, allocBytes, heaps []float64
	cpu := results[0].cpu
	for _, r := range results {
		srv, cli, solo = append(srv, r.srv), append(cli, r.cli), append(solo, r.solo)
		setups = append(setups, r.setup.Seconds())
		mallocs = append(mallocs, float64(r.mallocs))
		allocBytes = append(allocBytes, float64(r.allocBytes))
		heaps = append(heaps, float64(r.heap))
		cpu = min(cpu, r.cpu)
	}
	first := results[0]
	per := roundsPerSlice(len(first.srv), first.burstWall)
	commits := float64(first.burstCounts.Commits)
	return map[string]float64{
		"setup_s":               worldBuild.Seconds() + percentile(setups, 50),
		"server_commits_per_s":  ratio(commits, quietSeconds(srv, per)),
		"client_us_per_commit":  ratio(quietSeconds(cli, per)*1e6, commits),
		"commit_path_p50_us":    percentile(minPerSample(solo), 50) * 1e6,
		"cpu_us_per_commit":     ratio(us(cpu), commits),
		"allocs_per_commit":     ratio(percentile(mallocs, 50), commits),
		"alloc_kb_per_commit":   ratio(percentile(allocBytes, 50)/1024, commits),
		"down_bytes_per_commit": ratio(float64(first.burstCounts.DownBytes), commits),
		"up_bytes_per_commit":   ratio(float64(first.burstCounts.UpBytes), commits),
		"server_heap_mb":        percentile(heaps, 50) / (1 << 20),
		"commit_share":          ratio(float64(first.counts.Commits), float64(first.counts.Submitted)),
	}
}

// tracedRun reads the per-layer metrics from three passes of a third of
// the length: one to warm the process up (a process's first pass reads
// up to a quarter slower), one traced, one untraced; the difference
// between the last two is the tracing overhead. Then the loopback socket
// probe. The span buffer is allocated before all three: live heap sets
// the collector's pace, and the passes must run at the same one to be
// comparable.
func tracedRun(sp *spec, w *manhattan.World, init *world.State, seconds int, spansPath string, out io.Writer) ([]*passResult, map[string]float64, error) {
	third := max(seconds/3, 1)
	tr := newTracer(16 * (scaled(sp.rounds, third)*sp.clients + scaled(sp.solo, third)))
	var results []*passResult
	for n, t := range []*tracer{nil, tr, nil} {
		runtime.GC()
		res, err := runPass(sp, w, init, third, n, t)
		results = append(results, res)
		if err != nil {
			return results, nil, fmt.Errorf("pass %d: %w", n+1, err)
		}
	}
	traced, plain := results[1], results[2]
	if err := errors.Join(
		checkDeterminism("pass", []counts{plain.counts, traced.counts, results[0].counts}),
		checkDeterminism("burst", []counts{plain.burstCounts, traced.burstCounts, results[0].burstCounts})); err != nil {
		return results, nil, err
	}
	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			return results, nil, err
		}
	}
	vals, err := layerValues(plain, traced, tr, out)
	if err != nil {
		return results, nil, err
	}
	p50, rate, err := sockProbe(w, init, sp.cfg(w))
	if err != nil {
		// A sandbox without loopback is not a wrong answer.
		fmt.Fprintf(out, "socket probe skipped: %v\n", err)
	}
	vals["transport.sock_commit_p50_us"], vals["transport.sock_commits_per_s"] = p50, rate
	return results, vals, nil
}

// layerValues derives the per-layer metrics from the traced pass r, the
// untraced pass of the same length, and the spans of the burst phase.
func layerValues(plain, r *passResult, tr *tracer, out io.Writer) (map[string]float64, error) {
	burst := &tracer{spans: tr.spans[:tr.burstEnd]}
	self, _ := burst.selfTimes()
	bc := r.burstCounts
	commits := float64(bc.Commits)
	traced := r.burst[sideServer] + r.burst[sideClient]
	covered := burst.budget(out, bc.Commits, traced)
	perCommit := func(o op) float64 { return ratio(us(self[o]), commits) }
	ns := func(v int64) float64 { return ratio(float64(v)/1e3, commits) }
	rs, st, cs := r.router, r.server, r.client
	routed := float64(rs.LocalActions + rs.CrossShardActions)
	pipeline := float64(rs.StampNs + rs.PlanNs + rs.CommitNs + rs.MergeNs + rs.InstallNs)
	critical := float64(rs.StampCritNs + rs.PlanCritNs + rs.CommitCritNs + rs.MergeNs + rs.InstallCritNs)
	vals := map[string]float64{
		"wire.decode_up_us":           perCommit(opDecodeUp),
		"wire.encode_down_us":         perCommit(opEncodeDown),
		"wire.encode_cache_hit_share": ratio(float64(r.hits), float64(r.encodes)),
		"wire.decode_down_us":         perCommit(opDecodeDown),
		"wire.encode_up_us":           perCommit(opEncodeUp),
		"wire.down_frames_per_commit": ratio(float64(bc.DownFrames), commits),

		"core.submit_us":              perCommit(opSubmit),
		"core.completion_us":          perCommit(opCompletion),
		"core.session_us":             perCommit(opSession),
		"core.queue_scans_per_commit": ratio(float64(st.TotalQueueScans), commits),
		"core.scan_saved_share":       ratio(float64(st.ScanSavedEntries), float64(st.ScanSavedEntries+st.TotalQueueScans)),
		"core.queue_len_max":          float64(r.queueMax),
		"core.drop_share":             ratio(float64(st.TotalDropped), float64(st.TotalSubmitted)),
		"core.tick_p50_us":            percentile(burst.durations(opTick), 50),
		"core.tick_share":             ratio(float64(self[opTick]), float64(r.burst[sideServer])),
		"core.push_envs_per_tick":     ratio(float64(bc.PushEnvs), float64(bc.Ticks)),
		"core.push_replies_per_tick":  ratio(float64(bc.PushReplies), float64(bc.Ticks)),
		"core.tracked_clients":        float64(r.gauges.TrackedClients),
		"core.interned_objects":       float64(r.gauges.InternedObjects),
		"core.retained_batches":       float64(r.gauges.RetainedBatches),

		"client.submit_us":                 perCommit(opClientSubmit),
		"client.handle_us":                 perCommit(opClientHandle),
		"client.join_us":                   perCommit(opClientJoin),
		"client.reconcile_share":           ratio(float64(cs.Reconciliations), commits),
		"client.applied_remote_per_commit": ratio(float64(cs.AppliedRemote), commits),
		"client.applied_blind_per_commit":  ratio(float64(cs.AppliedBlind), commits),
		"client.path_p99_us":               percentile(r.solo, 99) * 1e6,

		"integrity.audits_per_commit": ratio(float64(st.AuditsRun), commits),
		"integrity.violations":        float64(integrityViolations(r.gauges)),

		"shard.flush_us":          perCommit(opFlush),
		"shard.stamp_us":          ns(rs.StampNs),
		"shard.plan_us":           ns(rs.PlanNs),
		"shard.plan_crit_us":      ns(rs.PlanCritNs),
		"shard.commit_us":         ns(rs.CommitNs),
		"shard.merge_us":          ns(rs.MergeNs),
		"shard.install_us":        ns(rs.InstallNs),
		"shard.partitioned_share": ratio(float64(rs.PartitionedEpochs), float64(rs.Epochs)),
		"shard.spanning_share":    ratio(float64(rs.SpanningActions), routed),
		"shard.lane_imbalance":    rs.LaneImbalance,
		"shard.actions_per_epoch": ratio(float64(rs.LocalActions), float64(rs.Epochs)),
		// A projection from phase timings, not a measured speed-up.
		"shard.achievable_x": ratio(pipeline, critical),

		"transport.enqueue_us":        perCommit(opEnqueue),
		"transport.popall_us":         perCommit(opPopAll),
		"transport.queue_depth_max":   float64(r.depthMax),
		"transport.frames_coalesced":  float64(r.ctrs[0]),
		"transport.frames_superseded": float64(r.ctrs[1]),
		"transport.drops":             float64(r.ctrs[2]),

		"durable.journal_us":        ratio(us(self[opJournal]+r.retainTime), commits),
		"durable.bytes_per_commit":  ratio(float64(r.walBytes), float64(r.counts.Commits)),
		"durable.records_per_group": ratio(float64(r.walStats.Durable), float64(r.walStats.GroupCommits)),
		"durable.group_commits":     float64(r.walStats.GroupCommits),
		"durable.lag_end":           float64(r.lagEnd),
		"durable.sync_drain_ms":     float64(r.syncDrain) / 1e6,
		"durable.shed_records":      float64(r.walStats.ShedRecords),
		"durable.recover_ms":        float64(r.recover) / 1e6,

		"gen.share":             ratio(float64(r.burst[sideGen]), float64(r.burstWall)),
		"driver.overhead_share": 1 - covered,
		"trace.overhead_share":  ratio(float64(traced), float64(plain.burst[sideServer]+plain.burst[sideClient])) - 1,
	}
	// The layer budget must add up: spans that miss a tenth of the time
	// they claim to explain are not a budget.
	if covered < 0.9 {
		return nil, fmt.Errorf("layer self-times cover %.1f %% of traced server+client time, need 90 %%", 100*covered)
	}
	return vals, nil
}

// calibrate times a fixed integer loop. It is printed at the start and
// end of every run so a slow-host run can be told from a slow commit; it
// never normalises anything.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start)
}

var calibSink uint64

// fingerprint prints what a reader needs to judge whether two outputs
// are comparable.
func fingerprint(out io.Writer, sp *spec, seed int64, seconds int, traced bool, worldBuild time.Duration, calib []time.Duration, results []*passResult) {
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v\n", sp.name, seed, seconds, traced)
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), gitCommit())
	fmt.Fprintf(out, "host.calib_ms: start %.2f end %.2f; world build %.1f ms\n",
		float64(calib[0])/1e6, float64(calib[1])/1e6, float64(worldBuild)/1e6)
	for i, r := range results {
		c, b := r.counts, r.burstCounts
		fmt.Fprintf(out, "pass %d: wall %.2fs setup %.3fs burst %.2fs (%d rounds, %d commits, server %.2fs client %.2fs gen %.2fs) solo %d samples p50 %.2fus; %d submitted %d committed %d dropped %d ticks %d cycles\n",
			i+1, r.total.Seconds(), r.setup.Seconds(), r.burstWall.Seconds(), len(r.srv), b.Commits,
			r.burst[sideServer].Seconds(), r.burst[sideClient].Seconds(), r.burst[sideGen].Seconds(),
			len(r.solo), percentile(r.solo, 50)*1e6, c.Submitted, c.Commits, c.Drops, c.Ticks, c.Cycles)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit is the fingerprint's commit; the driver's checkout is not a
// git repository, so failure is an answer, not an error.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil || len(out) == 0 {
		return "unknown"
	}
	return string(out[:len(out)-1])
}
