package experiments

import (
	"fmt"

	"seve/internal/core"
	"seve/internal/metrics"
)

// Ablations for the design choices DESIGN.md calls out: the First Bound
// push interval ω, the Information Bound threshold, and the client-side
// garbage collection. Each sweeps one knob with everything else held at
// the Figure 6 / Figure 8 configurations.

// AblationOmega sweeps ω, the First Bound push interval as a fraction of
// RTT. Section III-D proves response time ≤ (1+ω)·RTT: small ω buys
// latency with more frequent pushes (server tick work); large ω batches
// pushes but lets closure replies carry more. The response column should
// track the (1+ω)·RTT bound from below at low load.
func AblationOmega(opt Options) (*metrics.Table, error) {
	omegas := pick(opt, []float64{0.1, 0.25, 0.5, 0.75, 0.9}, []float64{0.1, 0.5, 0.9})

	t := &metrics.Table{
		Title:  "Ablation: First Bound push interval ω (32 clients, RTT 476 ms)",
		Header: []string{"omega", "bound-(1+w)RTT", "mean-resp-ms", "p95-resp-ms", "queue-scans"},
	}
	for _, om := range omegas {
		rc := ablationRun(opt)
		rc.Core.Omega = om
		res, err := Run(rc)
		if err != nil {
			return nil, fmt.Errorf("ablation omega=%.2f: %w", om, err)
		}
		t.AddRow(
			fmt.Sprintf("%.2f", om),
			metrics.Ms((1+om)*rc.Core.RTTMs),
			metrics.Ms(res.Response.Mean()),
			metrics.Ms(res.Response.Percentile(95)),
			fmt.Sprintf("%d", res.QueueScans),
		)
		opt.log("ablation omega=%.2f mean=%.0f p95=%.0f scans=%d",
			om, res.Response.Mean(), res.Response.Percentile(95), res.QueueScans)
	}
	return t, nil
}

// ablationRun is the 32-client SEVE run AblationOmega and AblationGC
// vary: 2000 walls at a flat 2 ms per action, Table I's protocol
// parameters over the run's latency, speed and effect range.
func ablationRun(opt Options) RunConfig {
	rc := DefaultRunConfig(ArchSEVE, 32)
	rc.MovesPerClient = opt.moves()
	rc.World.NumWalls = 2000
	rc.World.BaseCostMs = 2
	rc.World.PerWallCostMs = 0
	rc.Core = core.DefaultConfig()
	rc.Core.RTTMs = 2 * rc.LatencyMs
	rc.Core.MaxSpeed = rc.World.Speed
	rc.Core.DefaultRadius = rc.World.EffectRange
	rc.Core.Threshold = 45
	return rc
}

// AblationThreshold sweeps the Information Bound chain-breaking distance
// in the dense Figure 8 world: the consistency-vs-performance dial of
// Section III-E. Small thresholds drop aggressively and stay fast; an
// effectively infinite threshold is the no-dropping variant that
// collapses.
func AblationThreshold(opt Options) (*metrics.Table, error) {
	thresholds := pick(opt, []float64{15, 30, 45, 90, 180, 1e9}, []float64{15, 45, 1e9})

	t := &metrics.Table{
		Title:  "Ablation: Information Bound threshold (Figure 8 world, visibility 90)",
		Header: []string{"threshold", "mean-resp-ms", "moves-dropped-%", "queue-scans"},
	}
	for _, th := range thresholds {
		rc := fig8World(90, opt.moves())
		rc.Arch = ArchSEVE
		cfg := rc.Core
		cfg.Threshold = th
		rc.Core = cfg
		res, err := Run(rc)
		if err != nil {
			return nil, fmt.Errorf("ablation threshold=%.0f: %w", th, err)
		}
		label := fmt.Sprintf("%.0f", th)
		if th >= 1e9 {
			label = "inf"
		}
		t.AddRow(
			label,
			metrics.Ms(res.Response.Mean()),
			metrics.Pct(res.Dropped, res.Submitted),
			fmt.Sprintf("%d", res.QueueScans),
		)
		opt.log("ablation threshold=%s mean=%.0f dropped=%s%%",
			label, res.Response.Mean(), metrics.Pct(res.Dropped, res.Submitted))
	}
	return t, nil
}

// AblationGC measures what the Section III-C garbage collection (the
// server's installed-point notifications letting clients prune old
// versions) saves in client stable-store memory: the versions the
// busiest store holds next to the versions the busiest store was ever
// written, which is what it would hold without collection. (The
// simulator never restarts the server or rebuilds a client from a
// snapshot, the two other ways a store discards versions.)
func AblationGC(opt Options) (*metrics.Table, error) {
	rc := ablationRun(opt)
	// A smaller world concentrates conflicts so stable stores actually
	// accumulate versions.
	rc.World.Width, rc.World.Height = 300, 300
	res, err := Run(rc)
	if err != nil {
		return nil, fmt.Errorf("ablation gc: %w", err)
	}
	t := &metrics.Table{
		Title:  "Ablation: client version garbage collection (32 clients)",
		Header: []string{"max-held-versions", "max-stored-versions", "mean-resp-ms"},
	}
	t.AddRow(fmt.Sprintf("%d", res.MaxStableVersions), fmt.Sprintf("%d", res.MaxStoredVersions), metrics.Ms(res.Response.Mean()))
	opt.log("ablation gc held=%d stored=%d", res.MaxStableVersions, res.MaxStoredVersions)
	return t, nil
}
