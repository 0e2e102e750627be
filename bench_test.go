package seve_test

// Benchmarks regenerating (at reduced scale) the paper's evaluation
// artifacts, one per figure/table, plus micro-benchmarks of the
// primitives no layer metric isolates. `go test -bench=. -benchmem` runs
// them all; the full artifacts come from `go run ./cmd/seve-bench`, and
// this implementation's own cost, layer by layer, from `go run ./bench`.

import (
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/experiments"
	"seve/internal/geom"
	"seve/internal/manhattan"
	"seve/internal/wire"
	"seve/internal/world"
)

// runOnce executes one scaled-down experiment run per iteration.
func runOnce(b *testing.B, rc experiments.RunConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed == 0 {
			b.Fatal("no commits")
		}
	}
}

func scaled(arch experiments.Arch, clients int) experiments.RunConfig {
	rc := experiments.DefaultRunConfig(arch, clients)
	rc.MovesPerClient = 20
	rc.World.NumWalls = 2000
	rc.World.BaseCostMs = 7.44
	rc.World.PerWallCostMs = 0
	rc.SlackMs = 30_000
	return rc
}

// --- Figure 6: response time vs clients ---

func BenchmarkFig6SEVE32(b *testing.B)      { runOnce(b, scaled(experiments.ArchSEVE, 32)) }
func BenchmarkFig6Central32(b *testing.B)   { runOnce(b, scaled(experiments.ArchCentral, 32)) }
func BenchmarkFig6Broadcast32(b *testing.B) { runOnce(b, scaled(experiments.ArchBroadcast, 32)) }
func BenchmarkFig6SEVE64(b *testing.B)      { runOnce(b, scaled(experiments.ArchSEVE, 64)) }
func BenchmarkFig6Central64(b *testing.B)   { runOnce(b, scaled(experiments.ArchCentral, 64)) }
func BenchmarkFig6Broadcast64(b *testing.B) { runOnce(b, scaled(experiments.ArchBroadcast, 64)) }

// --- Figure 7: response time vs per-action complexity (25 clients) ---

func benchFig7(b *testing.B, arch experiments.Arch, costMs float64) {
	rc := scaled(arch, 25)
	rc.World.BaseCostMs = costMs
	runOnce(b, rc)
}

func BenchmarkFig7SEVECost25ms(b *testing.B)      { benchFig7(b, experiments.ArchSEVE, 25) }
func BenchmarkFig7CentralCost25ms(b *testing.B)   { benchFig7(b, experiments.ArchCentral, 25) }
func BenchmarkFig7BroadcastCost25ms(b *testing.B) { benchFig7(b, experiments.ArchBroadcast, 25) }

// --- Figure 8 / Table II: density and dropping ---

func benchFig8(b *testing.B, arch experiments.Arch, visibility float64) {
	rc := experiments.DefaultRunConfig(arch, 60)
	rc.World.Width, rc.World.Height = 250, 250
	rc.World.NumWalls = 3000
	rc.World.Visibility = visibility
	rc.MovesPerClient = 15
	rc.Spacing = 4
	rc.BandwidthBps = 1_000_000
	rc.SlackMs = 30_000
	cfg := core.DefaultConfig()
	cfg.RTTMs = 2 * rc.LatencyMs
	cfg.MaxSpeed = rc.World.Speed
	cfg.DefaultRadius = rc.World.EffectRange
	cfg.Threshold = 45
	rc.Core = cfg
	runOnce(b, rc)
}

func BenchmarkFig8DenseNoDrop(b *testing.B) { benchFig8(b, experiments.ArchSEVENoDrop, 70) }
func BenchmarkFig8DenseDrop(b *testing.B)   { benchFig8(b, experiments.ArchSEVE, 70) }

func BenchmarkTable2EffectRange11(b *testing.B) {
	rc := experiments.DefaultRunConfig(experiments.ArchSEVE, 60)
	rc.World.Width, rc.World.Height = 250, 250
	rc.World.NumWalls = 3000
	rc.World.Visibility = 20
	rc.World.EffectRange = 11
	rc.MovesPerClient = 15
	rc.Spacing = 4
	rc.BandwidthBps = 1_000_000
	cfg := core.DefaultConfig()
	cfg.RTTMs = 2 * rc.LatencyMs
	cfg.MaxSpeed = rc.World.Speed
	cfg.DefaultRadius = 11
	cfg.Threshold = 30
	rc.Core = cfg
	runOnce(b, rc)
}

// --- Figure 9: traffic ---

func benchFig9(b *testing.B, arch experiments.Arch) {
	rc := scaled(arch, 32)
	rc.World.BaseCostMs = 1
	runOnce(b, rc)
}

func BenchmarkFig9SEVE(b *testing.B)      { benchFig9(b, experiments.ArchSEVE) }
func BenchmarkFig9Central(b *testing.B)   { benchFig9(b, experiments.ArchCentral) }
func BenchmarkFig9Broadcast(b *testing.B) { benchFig9(b, experiments.ArchBroadcast) }

// --- Figure 10: SEVE vs RING ---

func benchFig10(b *testing.B, arch experiments.Arch) {
	rc := experiments.DefaultRunConfig(arch, 48)
	rc.MovesPerClient = 20
	rc.World.Width, rc.World.Height = 250, 250
	rc.World.NumWalls = 2500
	rc.World.Visibility = 65
	rc.World.BaseCostMs = 1
	rc.World.PerWallCostMs = 0.002
	rc.RingVisibility = 65
	runOnce(b, rc)
}

func BenchmarkFig10SEVE(b *testing.B) { benchFig10(b, experiments.ArchSEVE) }
func BenchmarkFig10Ring(b *testing.B) { benchFig10(b, experiments.ArchRing) }

// --- Micro-benchmarks of primitives ---

func BenchmarkIDSetIntersects(b *testing.B) {
	x := world.NewIDSet(1, 5, 9, 13, 17, 21, 25)
	y := world.NewIDSet(2, 6, 10, 14, 18, 22, 25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.Intersects(y) {
			b.Fatal("expected intersection")
		}
	}
}

func BenchmarkMVStoreReadAt(b *testing.B) {
	m := world.NewMVStore()
	for seq := uint64(0); seq < 64; seq++ {
		m.WriteAt(1, seq*3, world.Value{float64(seq)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := m.ReadAt(1, uint64(i%190)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMoveApply(b *testing.B) {
	wcfg := manhattan.DefaultConfig()
	wcfg.NumWalls = 10_000
	wcfg.NumAvatars = 16
	w := manhattan.NewWorld(wcfg)
	st := w.InitialState(0)
	mv, err := w.NewMove(action.ID{Client: 1, Seq: 1}, manhattan.AvatarID(1), st)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := action.Eval(mv, world.StateView{S: st})
		if !res.OK {
			b.Fatal("move aborted")
		}
	}
}

func BenchmarkWireBatchRoundTrip(b *testing.B) {
	bw := action.NewBlindWrite(action.ID{Client: action.OriginServer, Seq: 1},
		[]world.Write{{ID: 1, Val: world.Value{1, 2, 3, 4}}, {ID: 2, Val: world.Value{5, 6, 7, 8}}})
	batch := &wire.Batch{Envs: []action.Envelope{{Seq: 1, Origin: action.OriginServer, Act: bw}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := wire.Encode(batch)
		if _, err := wire.Decode(wire.TypeBatch, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentIndexCountWithin(b *testing.B) {
	wcfg := manhattan.DefaultConfig()
	wcfg.NumWalls = 100_000
	w := manhattan.NewWorld(wcfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExactVisibleWalls(geom.Vec{X: float64(i%900) + 50, Y: 500})
	}
}
