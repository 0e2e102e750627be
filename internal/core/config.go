// Package core implements the action-based consistency protocols of
// Section III — the paper's primary contribution. The Client and Server
// types are transport-agnostic state machines: the same engines run under
// the discrete-event simulator (package experiments) and over real TCP
// (cmd/seve-server, cmd/seve-client).
//
// Protocol levels build on each other exactly as in the paper:
//
//   - ModeBasic — Algorithms 1–3. The server timestamps and serializes
//     every action and every client evaluates all of them. One-RTT
//     response, full consistency, no scalability.
//   - ModeIncomplete — Algorithms 4–6 (the Incomplete World Model). The
//     server maintains the authoritative state ζS from completion
//     messages and sends each client only the transitive closure of
//     actions that affect its submissions, seeded by a blind write.
//   - ModeFirstBound — adds the First Bound Model (Section III-D): the
//     server proactively pushes, every ω·RTT, the actions whose influence
//     spheres satisfy Equation (1) for the client, bounding response time
//     by (1+ω)·RTT.
//   - ModeInfoBound — adds the Information Bound Model (Algorithm 7):
//     actions whose transitive conflict chains span farther than a
//     distance threshold are dropped at submission, bounding the size of
//     every closure (Equation 2). This is the full SEVE configuration
//     evaluated in Section V.
package core

import (
	"fmt"
	"math"
	"strings"

	"seve/internal/geom"
)

// Mode selects the protocol level. Each level includes all the machinery
// of the levels below it.
type Mode int

// Protocol levels, in increasing order of machinery.
const (
	ModeBasic Mode = iota
	ModeIncomplete
	ModeFirstBound
	ModeInfoBound
)

var modeNames = [...]string{
	ModeBasic:      "basic",
	ModeIncomplete: "incomplete",
	ModeFirstBound: "firstbound",
	ModeInfoBound:  "infobound",
}

// String names the mode for diagnostics, experiment tables and the
// binaries' -mode flag.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode is the inverse of Mode.String.
func ParseMode(name string) (Mode, error) {
	for m, n := range modeNames {
		if n == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (want %s)", name, strings.Join(modeNames[:], "|"))
}

// Config carries the protocol parameters shared by the server and its
// clients. The defaults mirror Table I of the paper.
type Config struct {
	// Mode is the protocol level.
	Mode Mode

	// Omega is ω ∈ (0, 1), the First Bound push interval as a fraction
	// of RTT. The response-time bound is (1+ω)·RTT.
	Omega float64

	// RTTMs is the client↔server round-trip time in milliseconds used in
	// Equations (1) and (2). The paper's testbed had 238 ms one-way
	// latency, i.e. RTT 476 ms.
	RTTMs float64

	// MaxSpeed is s, the maximum rate of change of any object's position
	// in world units per millisecond (Section III-D).
	MaxSpeed float64

	// Threshold is the Information Bound chain-breaking distance: a
	// submitted action is dropped if its transitive conflict chain
	// contains an action farther away than this (Algorithm 7). Table I
	// sets it to 1.5 × avatar visibility.
	Threshold float64

	// DefaultRadius is the influence radius assumed for actions that do
	// not implement action.Spatial, and the default rC for clients that
	// have not yet submitted a spatial action.
	DefaultRadius float64

	// Strict makes engines verify that every action's actual reads and
	// writes stay inside its declared RS/WS, and records any stable-state
	// read of a never-delivered object as a protocol violation. Tests run
	// strict; experiments may disable it for speed.
	Strict bool

	// FailureTolerant enables the Section III-C extension: every client
	// sends completion messages for every action it applies, not only its
	// own, so the server can install an action as long as any client that
	// evaluated it survives.
	FailureTolerant bool

	// InterestFilter enables inconsequential action elimination
	// (Section IV-A): First Bound pushes skip actions whose interest
	// class the client did not subscribe to. Closure replies are never
	// filtered — consistency of submitted actions always wins.
	InterestFilter bool

	// AreaCulling enables the Section IV-B refinement: actions
	// implementing action.Moving are push-filtered by their projected
	// position rather than a static influence sphere.
	AreaCulling bool

	// RecordHistory makes the server retain every stamped envelope so
	// tests can replay the serial order through an oracle. Costs memory;
	// off in benchmarks.
	RecordHistory bool

	// HybridRelay delegates First Bound push fan-out to one relay client
	// per neighbourhood cell, which forwards the shared batch peer-to-
	// peer (the Section VII hybrid architecture). Requires
	// ModeFirstBound or above.
	HybridRelay bool

	// Shards selects the spatially partitioned sharded serializer
	// (package shard): N lanes own disjoint regions of the object space,
	// submissions are routed to the lane owning their read/write-set
	// footprint, and lane analysis fans out over one goroutine per
	// shard while the merged (epoch, shardLane, localSeq) order is
	// stamped sequentially. 0 or 1 means the single-lane *Server.
	// Honored by shard.NewEngine; NewServer itself is always one lane.
	Shards int

	// ShardCellSize is the edge length of the spatial ownership grid the
	// shard router partitions the world into. 0 picks NeighbourhoodCell.
	ShardCellSize float64

	// ResumeWindow enables session resume (TypeResume/TypeCatchUp): the
	// server retains up to this many committed batches per client and, on
	// reconnect, replays the suffix the client missed. A client whose gap
	// exceeds the window degrades to a full blind-write snapshot of ζS —
	// W(S, ζS(S)) generalized to the whole state (Algorithm 6 / Theorem 1
	// applied as a catch-up primitive). 0 disables sessions entirely
	// (disconnect loses the client, as before). Requires ModeIncomplete or
	// above: ModeBasic has no authoritative state to snapshot from.
	ResumeWindow int

	// AuditRate is the fraction of completions the integrity auditor
	// re-executes against ζS at their serial point, in [0, 1]. Sampling
	// is deterministic per client (seeded splitmix64), so the schedule
	// replays identically through the effective log and across restarts.
	// 0 disables audits; validation and bounds still apply.
	AuditRate float64

	// MaxSubmitRate caps each client's submissions per second through a
	// token bucket over the engine's deterministic clock; rate-exceeding
	// submissions are dropped with a violation counter. 0 = unlimited.
	MaxSubmitRate float64

	// SubmitBurst is the token-bucket depth for MaxSubmitRate; values
	// below 1 are treated as 1.
	SubmitBurst int

	// MaxWriteSet caps the declared write-set size of a submitted
	// action. 0 = unlimited.
	MaxWriteSet int

	// MaxInfluenceRadius caps the declared influence-sphere radius of a
	// submitted spatial action. 0 = unlimited.
	MaxInfluenceRadius float64
}

// DefaultConfig returns the Table I parameterization: full SEVE at
// RTT 476 ms, ω = 0.5, max speed 0.01 units/ms, move effect range 10,
// threshold 45 (1.5 × the 30-unit avatar visibility).
func DefaultConfig() Config {
	return Config{
		Mode:          ModeInfoBound,
		Omega:         0.5,
		RTTMs:         476,
		MaxSpeed:      0.01,
		Threshold:     45,
		DefaultRadius: 10,
		AuditRate:     0.05,
	}
}

// PushIntervalMs returns the First Bound push period ω·RTT.
func (c Config) PushIntervalMs() float64 { return c.Omega * c.RTTMs }

// NeighbourhoodCell is the side of the cells clients and objects are
// grouped by — the hybrid relay cells, and the shard lanes unless
// ShardCellSize is set: the Equation (1) reach plus both influence radii
// at DefaultRadius, so a crowd closer than a cell conflicts anyway.
// A side that is not positive becomes 1.
func (c Config) NeighbourhoodCell() float64 {
	cell := geom.Reach(c.MaxSpeed, c.Omega, c.RTTMs) + 2*c.DefaultRadius
	if cell <= 0 {
		cell = 1
	}
	return cell
}

// Validate reports configuration errors. Every range test is written so
// that NaN fails it, and the float fields other than MaxSpeed must be
// finite.
func (c Config) Validate() error {
	if c.Mode < ModeBasic || c.Mode > ModeInfoBound {
		return fmt.Errorf("core: invalid mode %d", int(c.Mode))
	}
	if c.Mode >= ModeFirstBound {
		if !(c.Omega > 0 && c.Omega < 1) {
			return fmt.Errorf("core: omega must be in (0,1), got %v", c.Omega)
		}
		if !(c.RTTMs > 0 && c.RTTMs <= math.MaxFloat64) {
			return fmt.Errorf("core: RTT must be positive and finite, got %v", c.RTTMs)
		}
	}
	if c.Mode >= ModeInfoBound && !(c.Threshold > 0 && c.Threshold <= math.MaxFloat64) {
		return fmt.Errorf("core: threshold must be positive and finite, got %v", c.Threshold)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: shards must be non-negative, got %d", c.Shards)
	}
	if !finiteNonNeg(c.ShardCellSize) {
		return fmt.Errorf("core: shard cell size must be non-negative and finite, got %v", c.ShardCellSize)
	}
	if c.HybridRelay && c.Mode < ModeFirstBound {
		return fmt.Errorf("core: hybrid relay requires the First Bound push path (mode %v)", c.Mode)
	}
	if c.ResumeWindow < 0 {
		return fmt.Errorf("core: resume window must be non-negative, got %d", c.ResumeWindow)
	}
	if c.ResumeWindow > 0 && c.Mode == ModeBasic {
		return fmt.Errorf("core: session resume requires ModeIncomplete or above (no ζS to snapshot in mode %v)", c.Mode)
	}
	if !(c.AuditRate >= 0 && c.AuditRate <= 1) {
		return fmt.Errorf("core: audit rate must be in [0,1], got %v", c.AuditRate)
	}
	if !finiteNonNeg(c.MaxSubmitRate) {
		return fmt.Errorf("core: max submit rate must be non-negative and finite, got %v", c.MaxSubmitRate)
	}
	if c.SubmitBurst < 0 {
		return fmt.Errorf("core: submit burst must be non-negative, got %d", c.SubmitBurst)
	}
	if c.MaxWriteSet < 0 {
		return fmt.Errorf("core: max write set must be non-negative, got %d", c.MaxWriteSet)
	}
	if !finiteNonNeg(c.MaxInfluenceRadius) {
		return fmt.Errorf("core: max influence radius must be non-negative and finite, got %v", c.MaxInfluenceRadius)
	}
	return nil
}

// finiteNonNeg reports whether v is in [0, MaxFloat64]: false for NaN.
func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
