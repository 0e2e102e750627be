package main

import (
	"math"
	"math/rand"

	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/manhattan"
	"seve/internal/spatial"
	"seve/internal/world"
)

// spec is one workload: a Manhattan People world, a protocol
// configuration, and the length of each phase. Everything a pass does
// is a pure function of (spec, seed, seconds).
type spec struct {
	name    string
	why     string
	clients int
	// rounds and solo are the burst rounds and solo actions of one pass
	// at refSeconds.
	rounds int
	solo   int
	// churn cycles one slot per burst round through leave + join (every
	// fourth cycle: leave + resume).
	churn bool
	// journal attaches a durable.Store in a scratch directory.
	journal bool
	world   func(seed int64) (*manhattan.World, *world.State)
	cfg     func(w *manhattan.World) core.Config
}

// scaled sizes a phase for a run of the given length, never below a
// handful of operations so a one-second smoke run still exercises every
// phase.
func scaled(n, seconds int) int {
	return max(n*seconds/refSeconds, 8)
}

// tableI is core.DefaultConfig (Table I, full SEVE) with the Information
// Bound threshold widened to the world's diagonal. Algorithm 7 still
// walks every chain, but no chain can be longer than the world, so no
// submission is ever dropped: the contract asks for workloads on which
// no operation fails, and a drop is a refused operation.
func tableI(w *manhattan.World) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threshold = math.Hypot(w.Cfg.Width, w.Cfg.Height) + 1
	return cfg
}

func uniformWorld(size float64, walls, avatars int, spacing float64) func(int64) (*manhattan.World, *world.State) {
	return func(seed int64) (*manhattan.World, *world.State) {
		wc := manhattan.DefaultConfig()
		wc.Width, wc.Height = size, size
		wc.NumWalls = walls
		wc.NumAvatars = avatars
		wc.Seed = seed
		w := manhattan.NewWorld(wc)
		return w, w.InitialState(spacing)
	}
}

// Village geometry of lanes4_wal: four boxes centred in the cells of a
// 2×2 ownership grid, each fenced by three concentric walls 1.5 apart.
// A move is blocked when its target lies within AvatarRadius (1) of a
// wall and a step is 3 long, so the 5-unit band a triple fence blocks
// cannot be stepped over; one wall could be.
const (
	villageCell = 500.0
	villageHalf = 30.0
	fenceGap    = 1.5
)

// villageWorld builds the fenced villages by hand: manhattan.NewWorld
// only scatters random walls.
func villageWorld(perVillage int) func(int64) (*manhattan.World, *world.State) {
	return func(seed int64) (*manhattan.World, *world.State) {
		wc := manhattan.DefaultConfig()
		wc.Width, wc.Height = 2*villageCell, 2*villageCell
		wc.NumAvatars = 4 * perVillage
		wc.Seed = seed
		var segs []geom.Segment
		var centres []geom.Vec
		for _, cy := range []float64{villageCell / 2, 3 * villageCell / 2} {
			for _, cx := range []float64{villageCell / 2, 3 * villageCell / 2} {
				centres = append(centres, geom.Vec{X: cx, Y: cy})
				for k := 0; k < 3; k++ {
					d := villageHalf + 3 + fenceGap*float64(k)
					a, b := geom.Vec{X: cx - d, Y: cy - d}, geom.Vec{X: cx + d, Y: cy - d}
					c, e := geom.Vec{X: cx + d, Y: cy + d}, geom.Vec{X: cx - d, Y: cy + d}
					segs = append(segs, geom.Segment{A: a, B: b}, geom.Segment{A: b, B: c},
						geom.Segment{A: c, B: e}, geom.Segment{A: e, B: a})
				}
			}
		}
		wc.NumWalls = len(segs)
		w := &manhattan.World{
			Cfg:    wc,
			Bounds: geom.NewRect(wc.Width, wc.Height),
			Walls:  spatial.NewSegmentIndex(segs, wc.Visibility),
		}
		// Avatars start on a jittered grid inside their village, client
		// ids dealt round-robin so every lane sees the same id mix.
		rng := rand.New(rand.NewSource(seed + 7))
		side := int(math.Ceil(math.Sqrt(float64(perVillage))))
		step := 2 * villageHalf / float64(side)
		st := world.NewState()
		for i := 0; i < wc.NumAvatars; i++ {
			v, k := i%4, i/4
			pos := geom.Vec{
				X: centres[v].X - villageHalf + step*(float64(k%side)+0.25+0.5*rng.Float64()),
				Y: centres[v].Y - villageHalf + step*(float64(k/side)+0.25+0.5*rng.Float64()),
			}
			ang := rng.Float64() * 2 * math.Pi
			st.Set(manhattan.AvatarID(i+1), world.Value{pos.X, pos.Y, math.Cos(ang), math.Sin(ang)})
		}
		return w, st
	}
}

// specs are the five workloads. Each names the layers it loads and the
// one it bypasses; README.md has the prediction table.
var specs = []*spec{
	{
		name:    "walk64",
		why:     "sparse walk, 64 clients in 2000x2000 at Table I wall density, GOMAXPROCS=1: closures of ~1 action, so fixed per-action cost in wire, SendQueue and client apply dominates",
		clients: 64, rounds: 1500, solo: 6000,
		world: uniformWorld(2000, 40_000, 64, 0),
		cfg: func(w *manhattan.World) core.Config {
			cfg := tableI(w)
			cfg.ResumeWindow = 64
			return cfg
		},
	},
	{
		name:    "crowd128",
		why:     "128 clients 4 apart filling a 50x50 world (Fig. 8 spacing, kept dense), GOMAXPROCS=1: whole-crowd closures, client reconcile and batch encoding do the work; everyone in one push cell",
		clients: 128, rounds: 30, solo: 1500,
		world: uniformWorld(50, 25, 128, 4),
		cfg:   tableI,
	},
	{
		name:    "tick1024",
		why:     "1024 clients in 2000x2000, GOMAXPROCS=1: First Bound push planning is O(clients x window) and most of server time; client MVStore pruning shows too",
		clients: 1024, rounds: 16, solo: 1000,
		world: uniformWorld(2000, 1000, 1024, 0),
		cfg:   tableI,
	},
	{
		name:    "lanes4_wal",
		why:     "256 clients in 4 fenced villages on a 2x2 shard grid, ModeIncomplete (no push), WAL attached, GOMAXPROCS=1: router six-pass flush, lane SPI and the journal committer; bypasses Tick",
		clients: 256, rounds: 160, solo: 2000,
		journal: true,
		world:   villageWorld(64),
		cfg: func(*manhattan.World) core.Config {
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeIncomplete
			cfg.Shards = 4
			cfg.ShardCellSize = villageCell
			cfg.ResumeWindow = 16
			return cfg
		},
	},
	{
		name:    "churn64",
		why:     "walk64 plus one slot leaving and joining (every 4th: resuming) per round, GOMAXPROCS=1: session, ledger and slot lifecycle; server heap grows with clients ever seen",
		clients: 64, rounds: 1200, solo: 5000,
		churn: true,
		world: uniformWorld(2000, 40_000, 64, 0),
		cfg: func(w *manhattan.World) core.Config {
			cfg := tableI(w)
			cfg.ResumeWindow = 64
			return cfg
		},
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
