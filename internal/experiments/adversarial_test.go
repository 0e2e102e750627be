package experiments

import "testing"

// TestAdversarialShape regenerates the adversarial delivery table in
// quick mode and asserts the qualitative claims DESIGN.md §13 makes:
// the keep-up control is byte-identical across disciplines, every
// stall scenario trades all of its drops for supersessions, and the
// stalled cohort's delivered bytes shrink.
func TestAdversarialShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tb, err := Adversarial(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("want 8 rows (4 scenarios x off/on), got %d", len(tb.Rows))
	}
	// Columns: 0 workload, 1 superseding, 2 delivered_kb, 3 stalled_kb,
	// 4 frames, 5 avg_envs, 6 enqueued, 7 drops, 8 drop_pct,
	// 9 superseded, 10 coalesced, 11 snapshots, 12 max_stale, 13 bytes_x.
	const (
		colKB, colStalledKB, colDrops = 2, 3, 7
		colSuperseded, colSnapshots   = 9, 11
		colBytesX                     = 13
	)
	for pair := 0; pair < len(tb.Rows); pair += 2 {
		off, on := pair, pair+1
		name := tb.Rows[off][0]
		if tb.Rows[off][1] != "off" || tb.Rows[on][1] != "on" || tb.Rows[on][0] != name {
			t.Fatalf("row pair %d is not an off/on pair for one workload: %v / %v",
				pair, tb.Rows[off], tb.Rows[on])
		}
		if got := cell(t, tb, on, colDrops); got != 0 {
			t.Errorf("%s: superseding queue dropped %v frames; supersession must replace, never lose", name, got)
		}
		if name == "uniform" {
			// The keep-up control: the experiment-scale restatement of
			// TestSupersedingEquivalence. Identical bytes, nothing
			// superseded, no drops in either discipline.
			for _, col := range []int{colKB, colStalledKB, colDrops, colSuperseded, colSnapshots} {
				if a, b := cell(t, tb, off, col), cell(t, tb, on, col); a != b || (col != colKB && a != 0) {
					t.Errorf("uniform col %d: off=%v on=%v, want equal (and 0 beyond delivered_kb)", col, a, b)
				}
			}
			continue
		}
		if got := cell(t, tb, off, colDrops); got == 0 {
			t.Errorf("%s: drop-at-cap queue never dropped; the stall profile is not adversarial enough", name)
		}
		if got := cell(t, tb, on, colSuperseded); got == 0 {
			t.Errorf("%s: superseding queue never superseded", name)
		}
		if got := cell(t, tb, on, colSnapshots); got == 0 {
			t.Errorf("%s: snapshot fallback never fired", name)
		}
		if got := cell(t, tb, on, colBytesX); got <= 1 {
			t.Errorf("%s: no stalled-cohort byte reduction: %vx", name, got)
		}
	}
}
