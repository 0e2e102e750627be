package main

import (
	"fmt"
	"reflect"
	"time"

	"seve/internal/metrics"
)

// sliceTarget is the wall time one estimator slice should span. A slice
// must hold several GC cycles: with 0.7 ms slices the minimum across
// passes discarded the collector altogether and overstated throughput
// by 40 %.
const sliceTarget = 100 * time.Millisecond

// roundsPerSlice cuts a burst phase of the given length and wall time
// into slices of about sliceTarget.
func roundsPerSlice(rounds int, wall time.Duration) int {
	if rounds <= 0 || wall <= 0 {
		return 1
	}
	per := int(float64(rounds) * float64(sliceTarget) / float64(wall))
	return min(max(per, 1), rounds)
}

// quietSeconds is the quiet-time estimate of one side of the burst
// phase. passes[p][r] is the time pass p spent on that side in round r;
// every pass ran the identical op sequence, so a slice of per rounds did
// the same work in each and interference — other tenants, the scheduler,
// an unlucky GC — can only have added time. The estimate is the sum over
// slices of the fastest pass's time for that slice.
func quietSeconds(passes [][]float64, per int) float64 {
	if len(passes) == 0 {
		return 0
	}
	rounds := len(passes[0])
	total := 0.0
	for lo := 0; lo < rounds; lo += per {
		hi := min(lo+per, rounds)
		best := 0.0
		for p, times := range passes {
			sum := 0.0
			for _, t := range times[lo:hi] {
				sum += t
			}
			if p == 0 || sum < best {
				best = sum
			}
		}
		total += best
	}
	return total
}

// minPerSample merges the solo phase across passes: sample i is the
// same action in every pass, so its quiet time is the fastest reading.
func minPerSample(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := append([]float64(nil), passes[0]...)
	for _, samples := range passes[1:] {
		for i, v := range samples {
			if v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	var r metrics.Recorder
	for _, x := range xs {
		r.Add(x)
	}
	return r.Percentile(p)
}

// counts is everything a pass counts rather than times. The op sequence
// is deterministic, so a field that differs between passes means the
// system (or the driver) is not: the run fails rather than average over
// it.
type counts struct {
	Submitted   int
	Commits     int
	Drops       int
	Violations  int
	Installed   uint64
	DownBytes   int
	DownFrames  int
	UpBytes     int
	Ticks       int
	PushReplies int
	PushEnvs    int
	Cycles      int
}

// sub is the counts of a phase that began at o.
func (c counts) sub(o counts) counts {
	return counts{
		Submitted: c.Submitted - o.Submitted, Commits: c.Commits - o.Commits,
		Drops: c.Drops - o.Drops, Violations: c.Violations - o.Violations,
		Installed: c.Installed - o.Installed,
		DownBytes: c.DownBytes - o.DownBytes, DownFrames: c.DownFrames - o.DownFrames,
		UpBytes: c.UpBytes - o.UpBytes, Ticks: c.Ticks - o.Ticks,
		PushReplies: c.PushReplies - o.PushReplies, PushEnvs: c.PushEnvs - o.PushEnvs,
		Cycles: c.Cycles - o.Cycles,
	}
}

// unresolved is the submissions that neither committed nor were dropped
// by the time the pass drained.
func (c counts) unresolved() int { return c.Submitted - c.Commits - c.Drops }

// failed is the operations a user saw fail: drops (Information Bound
// invalidations and rate limits both reach the client as a Drop) and
// anything still unresolved at drain.
func (c counts) failed() int { return c.Drops + c.unresolved() }

// checkDeterminism fails when any pass counted differently from the
// first, naming the phase and the fields.
func checkDeterminism(phase string, passes []counts) error {
	for p := 1; p < len(passes); p++ {
		if passes[p] == passes[0] {
			continue
		}
		a, b := reflect.ValueOf(passes[0]), reflect.ValueOf(passes[p])
		msg := ""
		for i := 0; i < a.NumField(); i++ {
			if x, y := a.Field(i).Interface(), b.Field(i).Interface(); x != y {
				msg += fmt.Sprintf(" %s %v≠%v", a.Type().Field(i).Name, x, y)
			}
		}
		return fmt.Errorf("%s: pass %d counted differently from pass 1:%s", phase, p+1, msg)
	}
	return nil
}

// ratio is a/b, 0 when b is 0: a workload that never exercises a layer
// reports 0 for its ratios instead of NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
