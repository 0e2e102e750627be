package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// These tests regenerate each artifact in quick mode and assert the
// paper's qualitative shapes — who wins, where the knees fall — rather
// than absolute numbers. They are the executable form of EXPERIMENTS.md.

func cell(t *testing.T, tb interface{ String() string }, row, col int) float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(tb.String()), "\n")
	// lines: title, header, separator, data...
	fields := strings.Fields(lines[3+row])
	v, err := strconv.ParseFloat(fields[col], 64)
	if err != nil {
		t.Fatalf("cell(%d,%d) = %q: %v", row, col, fields[col], err)
	}
	return v
}

func TestTableIListsTableOneParameters(t *testing.T) {
	s := TableI().String()
	for _, want := range []string{"1000 x 1000", "238ms", "100Kbps", "Every 300ms", "10units", "30units"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Fig6(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick counts: 4, 16, 32, 48. Columns: clients Central SEVE Broadcast.
	rows := len(tb.Rows)
	seveFirst, seveLast := cell(t, tb, 0, 2), cell(t, tb, rows-1, 2)
	centralFirst, centralLast := cell(t, tb, 0, 1), cell(t, tb, rows-1, 1)
	broadcastLast := cell(t, tb, rows-1, 3)

	// SEVE stays flat (within 20% of its 4-client response).
	if seveLast > 1.2*seveFirst {
		t.Errorf("SEVE response not flat: %v → %v", seveFirst, seveLast)
	}
	// Central and Broadcast blow past 2x their unloaded response by 48.
	if centralLast < 2*centralFirst {
		t.Errorf("Central did not saturate: %v → %v", centralFirst, centralLast)
	}
	if broadcastLast < 2*centralFirst {
		t.Errorf("Broadcast did not saturate: %v", broadcastLast)
	}
	// At 48 clients SEVE beats Central by at least 2x.
	if centralLast < 2*seveLast {
		t.Errorf("SEVE not clearly ahead at 48 clients: central %v vs seve %v", centralLast, seveLast)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Fig7(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick costs: 1, 7.44, 15, 25. At 7.44ms (25 clients) baselines are
	// fine; at 25ms they are unplayable; SEVE indifferent throughout.
	centralAt7, centralAt25 := cell(t, tb, 1, 1), cell(t, tb, 3, 1)
	seveAt1, seveAt25 := cell(t, tb, 0, 2), cell(t, tb, 3, 2)
	if centralAt7 > 600 {
		t.Errorf("Central already saturated at 7.44ms: %v", centralAt7)
	}
	if centralAt25 < 3*centralAt7 {
		t.Errorf("Central not saturated at 25ms: %v vs %v", centralAt25, centralAt7)
	}
	if seveAt25 > 1.2*seveAt1 {
		t.Errorf("SEVE sensitive to action complexity: %v → %v", seveAt1, seveAt25)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Fig8(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick visibilities: 10, 40, 70, 100. Columns: visibility,
	// avatars-visible, nodrop, drop, dropped%.
	rows := len(tb.Rows)
	nodropFirst, nodropLast := cell(t, tb, 0, 2), cell(t, tb, rows-1, 2)
	dropFirst, dropLast := cell(t, tb, 0, 3), cell(t, tb, rows-1, 3)
	droppedPct := cell(t, tb, rows-1, 4)

	// The x axis is real: visible avatars grow with visibility.
	if vFirst, vLast := cell(t, tb, 0, 1), cell(t, tb, rows-1, 1); vLast < 3*vFirst {
		t.Errorf("visible avatars did not grow with visibility: %v → %v", vFirst, vLast)
	}
	// No-drop bogs down at high density; dropping stays much flatter.
	if nodropLast < 2*nodropFirst {
		t.Errorf("no-drop SEVE did not bog down: %v → %v", nodropFirst, nodropLast)
	}
	if dropLast > 1.8*dropFirst {
		t.Errorf("dropping SEVE not stable: %v → %v", dropFirst, dropLast)
	}
	if nodropLast < 2*dropLast {
		t.Errorf("dropping did not clearly win at peak density: %v vs %v", nodropLast, dropLast)
	}
	// Drops are a few percent, not a bloodbath.
	if droppedPct <= 0 || droppedPct > 25 {
		t.Errorf("drop rate out of range: %v%%", droppedPct)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Fig9(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick counts: 8, 24, 48 (3x then 2x). Columns: clients, Central,
	// SEVE, Broadcast.
	rows := len(tb.Rows)
	cFirst, cLast := cell(t, tb, 0, 1), cell(t, tb, rows-1, 1)
	sFirst, sLast := cell(t, tb, 0, 2), cell(t, tb, rows-1, 2)
	bFirst, bLast := cell(t, tb, 0, 3), cell(t, tb, rows-1, 3)

	// Broadcast grows quadratically: 6x the clients → far more than 6x
	// the bytes (expect ~36x; assert > 15x).
	if bLast < 15*bFirst {
		t.Errorf("Broadcast traffic not quadratic: %v → %v", bFirst, bLast)
	}
	// Central and SEVE grow roughly linearly (< 10x over 6x clients).
	if cLast > 10*cFirst || sLast > 10*sFirst {
		t.Errorf("linear architectures grew superlinearly: central %v→%v seve %v→%v",
			cFirst, cLast, sFirst, sLast)
	}
	// SEVE within a small factor of optimal Central.
	if sLast > 3*cLast {
		t.Errorf("SEVE traffic %v too far above Central %v", sLast, cLast)
	}
	// And Broadcast dwarfs SEVE at scale.
	if bLast < 3*sLast {
		t.Errorf("Broadcast %v did not dwarf SEVE %v", bLast, sLast)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Fig10(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: clients, SEVE, RING, visible, divergent%, overhead%.
	rows := len(tb.Rows)
	for r := 0; r < rows; r++ {
		overhead := cell(t, tb, r, 5)
		if overhead > 5 {
			t.Errorf("row %d: SEVE overhead %v%% far above the paper's ~1%%", r, overhead)
		}
		divergent := cell(t, tb, r, 4)
		if divergent <= 0 {
			t.Errorf("row %d: RING reported no divergence", r)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Table2(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick ranges: 1, 5, 9, 11. Drops rise monotonically and start ~0.
	var last float64 = -1
	for r := 0; r < len(tb.Rows); r++ {
		pct := cell(t, tb, r, 1)
		if pct < last-0.5 { // allow sub-point jitter
			t.Errorf("drop rate not monotone at row %d: %v after %v", r, pct, last)
		}
		last = pct
	}
	if first := cell(t, tb, 0, 1); first > 0.5 {
		t.Errorf("range-1 drop rate %v%%, expected ≈ 0", first)
	}
	if last < 1 {
		t.Errorf("range-11 drop rate %v%%, expected several percent", last)
	}
}

func TestLimitReportsHeadroom(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Limit(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick counts: 250, 1000. Per-round cost grows with clients and 250
	// clients must be far inside the budget.
	c250, c1000 := cell(t, tb, 0, 1), cell(t, tb, 1, 1)
	if c1000 <= c250 {
		t.Errorf("per-round cost did not grow: %v → %v", c250, c1000)
	}
	if head := cell(t, tb, 0, 2); head < 10 {
		t.Errorf("250 clients should have ≥10x headroom, got %vx", head)
	}
}

func TestProtocolsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Protocols(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: Locking, Ownership, Central, Broadcast, RING, SEVE.
	// Columns: protocol, mean, p95, traffic, divergent, consistent, queued.
	lockMean := cell(t, tb, 0, 1)
	ownMean := cell(t, tb, 1, 1)
	ownDivergent := cell(t, tb, 1, 4)
	ringDivergent := cell(t, tb, 4, 4)
	seveMean := cell(t, tb, 5, 1)
	seveDivergent := cell(t, tb, 5, 4)
	lockQueued := cell(t, tb, 0, 6)

	// Locking: consistent but at least 2x the one-round-trip protocols
	// under contention (the paper's 2×RTT floor plus queueing).
	if lockMean < 1.8*seveMean {
		t.Errorf("locking %v not clearly slower than SEVE %v", lockMean, seveMean)
	}
	if lockQueued == 0 {
		t.Error("no lock requests queued despite contention")
	}
	// Ownership: near-instant local commits but inconsistent (or at
	// least RING is — low-contention quick runs may leave ownership's
	// caches converged).
	if ownMean > 50 {
		t.Errorf("ownership local commit took %v ms", ownMean)
	}
	if ownDivergent == 0 && ringDivergent == 0 {
		t.Error("neither weak protocol diverged; contention too low to be meaningful")
	}
	// SEVE: one RTT and consistent.
	if seveMean > 600 {
		t.Errorf("SEVE response %v above one round trip", seveMean)
	}
	if seveDivergent != 0 {
		t.Errorf("SEVE diverged: %v objects", seveDivergent)
	}
}

func TestAblationOmegaRespectsBound(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := AblationOmega(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: omega, bound, mean, p95, scans. The First Bound claim:
	// p95 response stays under (1+ω)·RTT plus processing slack.
	for r := 0; r < len(tb.Rows); r++ {
		bound := cell(t, tb, r, 1)
		p95 := cell(t, tb, r, 3)
		if p95 > bound+100 {
			t.Errorf("row %d: p95 %v exceeds (1+ω)RTT bound %v", r, p95, bound)
		}
	}
}

func TestAblationThresholdDial(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := AblationThreshold(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick thresholds: 15, 45, inf. Drops shrink as the threshold
	// grows; response grows.
	d15, d45, dInf := cell(t, tb, 0, 2), cell(t, tb, 1, 2), cell(t, tb, 2, 2)
	if !(d15 > d45 && d45 > dInf) {
		t.Errorf("drop rates not decreasing with threshold: %v, %v, %v", d15, d45, dInf)
	}
	if dInf != 0 {
		t.Errorf("infinite threshold dropped %v%%", dInf)
	}
	r15, rInf := cell(t, tb, 0, 1), cell(t, tb, 2, 1)
	if rInf < 1.5*r15 {
		t.Errorf("unbounded chains not slower: inf %v vs th15 %v", rInf, r15)
	}
}

func TestAblationGCSavesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := AblationGC(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	held, stored := cell(t, tb, 0, 0), cell(t, tb, 0, 1)
	if stored < 2*held {
		t.Errorf("GC saved too little: %v versions held of %v stored", held, stored)
	}
}

func TestZoningCollapseShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Zoning(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Quick fractions: 0, 0.5, 1. Columns: frac, zonedMean, zonedP95,
	// busiestZone, seveMean.
	zonedUniform := cell(t, tb, 0, 1)
	zonedCrowded := cell(t, tb, 2, 1)
	seveUniform := cell(t, tb, 0, 4)
	seveCrowded := cell(t, tb, 2, 4)

	// Spread load: zoning works (the paper concedes this).
	if zonedUniform > 600 {
		t.Errorf("uniform zoned response %v; zoning should handle spread load", zonedUniform)
	}
	// Crowded: the hot zone collapses.
	if zonedCrowded < 2*zonedUniform {
		t.Errorf("crowding did not collapse the zone: %v vs %v", zonedCrowded, zonedUniform)
	}
	// SEVE is indifferent to placement.
	if seveCrowded > 1.2*seveUniform {
		t.Errorf("SEVE sensitive to crowding: %v vs %v", seveCrowded, seveUniform)
	}
}

func TestHybridCutsServerEgress(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Hybrid(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: server-unicast, p2p-relay. Columns: label, serverKB, totalKB,
	// mean, p95.
	unicastEgress := cell(t, tb, 0, 1)
	relayEgress := cell(t, tb, 1, 1)
	if relayEgress > 0.7*unicastEgress {
		t.Errorf("relay egress %v not clearly below unicast %v", relayEgress, unicastEgress)
	}
	// The relay hop costs latency but must not break the protocol: the
	// run completes (Run errors on verify failures) and responses stay
	// within ~2x.
	uMean, rMean := cell(t, tb, 0, 3), cell(t, tb, 1, 3)
	if rMean > 2*uMean {
		t.Errorf("relay response %v more than doubled unicast %v", rMean, uMean)
	}
}
