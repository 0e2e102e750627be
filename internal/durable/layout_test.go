package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/world"
)

// perLaneDir is a directory written by the last commit that kept one
// segment per lane; see its README.
const perLaneDir = "testdata/per-lane-layout"

// dumpRecovery renders everything Open hands back, in a fixed order.
func dumpRecovery(rec *Recovery) string {
	var b strings.Builder
	r := rec.Restore
	fmt.Fprintf(&b, "upTo %d nextBlind %d boot %d sessionSeq %d\n", r.UpTo, r.NextBlind, r.Boot, r.SessionSeq)
	sess := append([]core.SessionRecord(nil), r.Sessions...)
	sort.Slice(sess, func(i, j int) bool { return sess[i].ID < sess[j].ID })
	for _, s := range sess {
		fmt.Fprintf(&b, "session %d token %#x mask %#x seqNo %d lastActSeq %d\n", s.ID, s.Token, s.Mask, s.SeqNo, s.LastActSeq)
	}
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "quarantined %d reason %d seq %d\n", q.ID, q.Reason, q.Seq)
	}
	for _, id := range rec.State.IDs() {
		v, _ := rec.State.Get(id)
		fmt.Fprintf(&b, "object %d %v\n", id, []float64(v))
	}
	return b.String()
}

// copyStoreFiles copies the store artifacts of src that dst lacks.
func copyStoreFiles(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".log") && !strings.HasSuffix(e.Name(), ".state") {
			continue
		}
		to := filepath.Join(dst, e.Name())
		if _, err := os.Stat(to); err == nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func segmentNames(dir string) (perLane, shared []string) {
	_, _, segs := scanDir(dir)
	for _, sg := range segs {
		if strings.Count(sg.name, "-") == 2 {
			perLane = append(perLane, sg.name)
		} else {
			shared = append(shared, sg.name)
		}
	}
	return perLane, shared
}

// TestRecoversPerLaneLayout: a directory an older commit wrote recovers
// to exactly what that commit recovered from it — state, watermarks,
// sessions with their floors, verdicts — less the reply batches it kept,
// which the store no longer reads.
func TestRecoversPerLaneLayout(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(perLaneDir, "recovered.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyStoreFiles(t, perLaneDir, dir)
	if perLane, shared := segmentNames(dir); len(perLane) != 8 || len(shared) != 0 {
		t.Fatalf("fixture holds %d per-lane and %d shared segments, want 8 and 0", len(perLane), len(shared))
	}
	s, rec, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := dumpRecovery(rec); got != string(want) {
		t.Fatalf("recovered\n%s\nthe commit that wrote the directory recovered\n%s", got, want)
	}
}

// TestUpgradeMixesLayouts walks a per-lane directory through an upgrade:
// the new store's boot checkpoint, records in the shared segment, and a
// crash at each point where the directory holds both layouts — right
// after the first checkpoint's publish with its gc undone, and later with
// the fallback generation still per-lane. Every one recovers to the serial
// oracle, and two checkpoints on the per-lane files are gone.
func TestUpgradeMixesLayouts(t *testing.T) {
	dir := t.TempDir()
	copyStoreFiles(t, perLaneDir, dir)
	s, rec, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	oracle := rec.State.Clone()
	upTo := rec.Restore.UpTo

	reopen := func(label string, crash string, wantUpTo uint64, want *world.State) {
		t.Helper()
		s2, rec2, err := Open(crash, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer s2.Close()
		if rec2.Restore.UpTo != wantUpTo || !rec2.State.Equal(want) {
			t.Fatalf("%s: recovered through %d (want %d), state equal %v", label, rec2.Restore.UpTo, wantUpTo, rec2.State.Equal(want))
		}
		if len(rec2.Restore.Sessions) != 2 || len(rec2.Restore.Quarantined) != 1 {
			t.Fatalf("%s: %d sessions and %d verdicts survived, want 2 and 1", label, len(rec2.Restore.Sessions), len(rec2.Restore.Quarantined))
		}
	}

	// Crash between the upgrade's first checkpoint and its gc: everything
	// the old store left is still there beside the new generation.
	crash := crashCopy(t, dir)
	copyStoreFiles(t, perLaneDir, crash)
	if perLane, _ := segmentNames(crash); len(perLane) != 8 {
		t.Fatalf("pre-gc crash image holds %d per-lane segments, want all 8", len(perLane))
	}
	reopen("crash before the first gc", crash, upTo, oracle)

	// The upgraded store journals on: four lanes, one file.
	step := func(first uint64) {
		recs := make([]core.CommitRecord, 4)
		for i := range recs {
			seq := first + uint64(i)
			w := write(world.ObjectID(seq%5+1), float64(seq))
			recs[i] = core.CommitRecord{Seq: seq, Lane: int32(i), Origin: 7, ActSeq: uint32(seq), Res: action.Result{OK: true, Writes: []world.Write{w}}}
			oracle.Set(w.ID, w.Val)
		}
		s.CommitGroup(first, 6, recs)
		upTo = first + 3
	}
	step(upTo + 1)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	perLane, shared := segmentNames(dir)
	if len(shared) != 1 || shared[0] != segmentName(12) {
		t.Fatalf("shared segments after the upgrade's first commits: %v, want the one of generation 12", shared)
	}
	if len(perLane) != 4 {
		t.Fatalf("the fallback generation's %d per-lane segments remain, want 4", len(perLane))
	}
	// Both layouts, and the per-lane half is what a corrupt newest
	// snapshot falls back on.
	crash = crashCopy(t, dir)
	reopen("mixed directory", crash, upTo, oracle)
	snap := filepath.Join(crash, snapshotName(12))
	raw, _ := os.ReadFile(snap)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(snap, raw, 0o644)
	s3, rec3, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s3.Close()
	if rec3.Restore.UpTo != upTo || !rec3.State.Equal(oracle) {
		t.Fatalf("fallback through per-lane segments: recovered through %d (want %d), state equal %v", rec3.Restore.UpTo, upTo, rec3.State.Equal(oracle))
	}

	// Two checkpoints on, nothing per-lane is left to read.
	for i := 0; i < 2; i++ {
		step(upTo + 1)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if perLane, _ := segmentNames(dir); len(perLane) != 0 {
		t.Fatalf("per-lane segments after two checkpoints: %v", perLane)
	}
	reopen("shared layout only", crashCopy(t, dir), upTo, oracle)
}
