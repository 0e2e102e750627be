// Package experiments regenerates the paper's evaluation (Section V):
// one runner per figure and table, each wiring a protocol architecture
// and the Manhattan People workload into the discrete-event simulator.
//
// The simulator substitutes for the paper's 65-machine EMULab testbed
// (see DESIGN.md): nodes are single-core processors, links carry the
// Table I latency and bandwidth, and per-move compute cost is charged in
// virtual milliseconds using the paper's own calibration (7.44 ms per
// move at 100 000 walls).
package experiments

import (
	"fmt"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/metrics"
	"seve/internal/netsim"
	"seve/internal/sim"
)

// Arch selects the architecture under test.
type Arch int

// Architectures of Section V-B.
const (
	// ArchSEVE is the full action-based protocol (Incomplete World +
	// First Bound + Information Bound).
	ArchSEVE Arch = iota
	// ArchSEVENoDrop disables the Information Bound Model ("SEVE without
	// move dropping" in Figure 8).
	ArchSEVENoDrop
	// ArchCentral is the centralized server (Second Life / WoW).
	ArchCentral
	// ArchBroadcast is the NPSNET/SIMNET broadcast model.
	ArchBroadcast
	// ArchRing is the visibility-filtered RING-like architecture.
	ArchRing
	// ArchLocking is the distributed-locking protocol family of
	// Section II-B (Project Darkstar): response time ≥ 2×RTT.
	ArchLocking
	// ArchOwnership is the object-ownership family of Section II-B
	// (Cyberwalk/WAVES): instant owner-local commits, stale caches.
	ArchOwnership
	// ArchZoned is the Section II-A zoning architecture: the world tiled
	// across multiple Central-style servers.
	ArchZoned
)

// String names the architecture in experiment tables.
func (a Arch) String() string {
	switch a {
	case ArchSEVE:
		return "SEVE"
	case ArchSEVENoDrop:
		return "SEVE-nodrop"
	case ArchCentral:
		return "Central"
	case ArchBroadcast:
		return "Broadcast"
	case ArchRing:
		return "RING"
	case ArchLocking:
		return "Locking"
	case ArchOwnership:
		return "Ownership"
	case ArchZoned:
		return "Zoned"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Costs models compute charges in virtual milliseconds. Calibration
// follows Section V: moves carry their own cost (manhattan.MoveAction);
// the SEVE server charges per-submission dispatch plus per-queue-entry
// scan such that the transitive closure over a single move costs the
// paper's measured 0.04 ms at the Figure 6 scale.
type Costs struct {
	// ServerDispatchMs is charged per message the server handles.
	ServerDispatchMs float64
	// ScanMs is charged per uncommitted-queue entry examined by closure
	// or validity analysis.
	ScanMs float64
	// BlindWritePerObjectMs is charged per object installed from a blind
	// write at a client.
	BlindWritePerObjectMs float64
	// DefaultActionMs is charged for evaluating an action that does not
	// declare its own cost.
	DefaultActionMs float64
	// SyncOverheadMs is added to every application-action evaluation at
	// any node. The paper measures it at 60 ms per 32-client round —
	// 1.875 ms per action — "attributed to synchronization and
	// networking overhead" (Section V-B1); it is what puts the Central
	// and Broadcast knees at 30–32 clients rather than 40.
	SyncOverheadMs float64
}

// DefaultCosts returns the Section V calibration.
func DefaultCosts() Costs {
	return Costs{
		ServerDispatchMs:      0.02,
		ScanMs:                0.0004, // ~100-entry queue → 0.04 ms/move
		BlindWritePerObjectMs: 0.002,
		DefaultActionMs:       0.1,
		SyncOverheadMs:        1.875, // 60 ms per 32-client round
	}
}

// actionCost returns the compute charge for evaluating a at a node.
func (c Costs) actionCost(a action.Action) float64 {
	if bw, ok := a.(*action.BlindWrite); ok {
		return c.BlindWritePerObjectMs * float64(len(bw.Writes()))
	}
	if ca, ok := a.(interface{ CostMs() float64 }); ok {
		return ca.CostMs() + c.SyncOverheadMs
	}
	return c.DefaultActionMs + c.SyncOverheadMs
}

// RunConfig describes one experimental run.
type RunConfig struct {
	Arch  Arch
	World manhattan.Config
	// Spacing > 0 places avatars on a grid that far apart (Figure 8).
	Spacing float64
	// MovesPerClient and MoveIntervalMs follow Table I (100 moves,
	// one per 300 ms).
	MovesPerClient int
	MoveIntervalMs float64
	// Link parameters (Table I: 238 ms, 100 Kbps).
	LatencyMs    float64
	BandwidthBps float64
	// Core carries SEVE protocol parameters; zero means DefaultConfig
	// adjusted to the workload.
	Core core.Config
	// RingVisibility is the RING filter range; zero means the world's
	// avatar visibility.
	RingVisibility float64
	// CentralVisibility filters Central's update fan-out; zero means
	// the world's avatar visibility.
	CentralVisibility float64
	// ZonesPerRow tiles the world into ZonesPerRow² zones (ArchZoned;
	// zero means 2×2).
	ZonesPerRow int
	// CrowdFraction places this fraction of avatars in the lower-left
	// quarter tile at start (the Section II-A crowding stress); zero
	// keeps the Spacing-based placement.
	CrowdFraction float64
	// Costs models compute; zero-value means DefaultCosts.
	Costs Costs
	// Verify replays the history through the serial oracle and checks
	// the Theorem 1 invariants (slow; used by tests and small runs).
	Verify bool
	// SlackMs extends the simulation beyond the last scheduled move to
	// let in-flight work resolve.
	SlackMs float64
}

// DefaultRunConfig returns the Table I setup for the given architecture
// and client count.
func DefaultRunConfig(arch Arch, clients int) RunConfig {
	w := manhattan.DefaultConfig()
	w.NumAvatars = clients
	return RunConfig{
		Arch:           arch,
		World:          w,
		MovesPerClient: 100,
		MoveIntervalMs: 300,
		LatencyMs:      238,
		BandwidthBps:   100_000,
		Costs:          DefaultCosts(),
		SlackMs:        20_000,
	}
}

// coreConfig derives the SEVE protocol configuration from the run.
func (rc RunConfig) coreConfig() core.Config {
	cfg := rc.Core
	if cfg.RTTMs == 0 {
		cfg = core.DefaultConfig()
		cfg.RTTMs = 2 * rc.LatencyMs
		cfg.MaxSpeed = rc.World.Speed
		cfg.DefaultRadius = rc.World.EffectRange
		cfg.Threshold = 1.5 * rc.World.Visibility
	}
	switch rc.Arch {
	case ArchSEVE:
		cfg.Mode = core.ModeInfoBound
	case ArchSEVENoDrop:
		cfg.Mode = core.ModeFirstBound
	}
	if rc.Verify {
		cfg.Strict = true
		cfg.RecordHistory = true
	}
	return cfg
}

// Result carries everything the experiment tables report.
type Result struct {
	Arch     Arch
	Clients  int
	Response metrics.Recorder

	Submitted     int
	Committed     int
	Dropped       int
	Unresolved    int
	DropsByClient map[action.ClientID]int

	TotalBytes      uint64
	ServerSentBytes uint64
	ServerRecvBytes uint64

	ServerBusyMs    float64
	MaxClientBusyMs float64
	QueueScans      int

	AvgVisibleAvatars float64
	// Divergence counts client-held objects whose final value differs
	// from the serial oracle (the inconsistency of RING and Ownership;
	// zero for SEVE, Central, Broadcast, Locking).
	Divergence int
	// LockQueued counts lock requests that had to wait (ArchLocking).
	LockQueued int
	// MaxStableVersions is the largest per-client stable-store version
	// count at the end of the run — the memory the Section III-C garbage
	// collection bounds — and MaxStoredVersions the largest count of
	// versions a client's store was ever written.
	MaxStableVersions, MaxStoredVersions int

	SimEndMs   float64
	Violations []string
}

// Run executes one experiment run and returns its measurements.
func Run(rc RunConfig) (*Result, error) {
	if rc.MovesPerClient <= 0 || rc.MoveIntervalMs <= 0 {
		return nil, fmt.Errorf("experiments: moves per client and interval must be positive")
	}
	if (rc.Costs == Costs{}) {
		rc.Costs = DefaultCosts()
	}
	w := manhattan.NewWorld(rc.World)
	init := w.InitialState(rc.Spacing)
	if rc.CrowdFraction > 0 {
		init = w.InitialStateCrowded(rc.CrowdFraction)
	}

	k := sim.NewKernel()
	net := netsim.New(k, netsim.LinkConfig{Latency: sim.Time(rc.LatencyMs), BandwidthBps: rc.BandwidthBps})

	r := &Result{Arch: rc.Arch, Clients: rc.World.NumAvatars, DropsByClient: map[action.ClientID]int{}}
	h := &harness{rc: rc, w: w, init: init, k: k, net: net, res: r,
		submitAt: map[action.ID]sim.Time{}}

	switch rc.Arch {
	case ArchSEVE, ArchSEVENoDrop:
		h.buildSEVE()
	case ArchCentral:
		h.buildCentral()
	case ArchBroadcast:
		h.buildBroadcast()
	case ArchRing:
		h.buildRing()
	case ArchLocking:
		h.buildLocking()
	case ArchOwnership:
		h.buildOwnership()
	case ArchZoned:
		h.buildZoned()
	default:
		return nil, fmt.Errorf("experiments: unknown architecture %d", int(rc.Arch))
	}

	h.scheduleWorkload()

	horizon := sim.Time(float64(rc.MovesPerClient)*rc.MoveIntervalMs + 2*rc.LatencyMs + rc.SlackMs)
	k.RunUntil(horizon)
	r.SimEndMs = float64(k.Now())
	r.Unresolved = r.Submitted - r.Committed - r.Dropped
	if h.visSamples > 0 {
		r.AvgVisibleAvatars = h.visSum / float64(h.visSamples)
	}
	h.finish()

	if rc.Verify {
		if err := h.verify(); err != nil {
			return r, err
		}
	}
	return r, nil
}
