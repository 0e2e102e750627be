package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/world"
)

func write(id world.ObjectID, vals ...float64) world.Write {
	return world.Write{ID: id, Val: world.Value(vals)}
}

// commit feeds one single-entry install pass through the journal. lane
// is where a shard router would have placed the entry; the journal does
// not record it.
func commit(s *Store, seq uint64, lane int32, origin action.ClientID, actSeq uint32, res action.Result) {
	s.CommitGroup(seq, 0, []core.CommitRecord{{Seq: seq, Origin: origin, ActSeq: actSeq, Res: res}})
}

// crashCopy clones the store directory byte-for-byte into a fresh
// tempdir — the files a kill -9 would leave behind (the live Store
// keeps running against the original, like a process that never got
// to run its shutdown path).
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// newestSegment returns the path of the newest segment.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	_, segs, err := scanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment: %v", err)
	}
	return filepath.Join(dir, segmentName(segs[len(segs)-1]))
}

func TestCommitAndRecover(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Restore.UpTo != 0 || rec.Restore.Boot != 1 {
		t.Fatalf("virgin recovery: upTo=%d boot=%d", rec.Restore.UpTo, rec.Restore.Boot)
	}
	commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 10)}})
	commit(s, 2, 0, 0, 0, action.Result{OK: false}) // abort: no effect
	s.CommitGroup(3, 42, []core.CommitRecord{{Seq: 3, Res: action.Result{OK: true, Writes: []world.Write{write(1, 30), write(2, 5, 6)}}}})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Durable != 3 || st.Emitted != 3 || st.GroupCommits != 3 {
		t.Fatalf("stats after sync: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec2.Restore.UpTo != 3 {
		t.Fatalf("recovered up to %d, want 3", rec2.Restore.UpTo)
	}
	if rec2.Restore.Boot != 2 {
		t.Fatalf("boot = %d, want 2", rec2.Restore.Boot)
	}
	if rec2.Restore.NextBlind != 42 {
		t.Fatalf("nextBlind = %d, want 42", rec2.Restore.NextBlind)
	}
	if v, _ := rec2.State.Get(1); v[0] != 30 {
		t.Fatalf("obj 1 = %v, want 30", v)
	}
	if v, _ := rec2.State.Get(2); !v.Equal(world.Value{5, 6}) {
		t.Fatalf("obj 2 = %v", v)
	}
}

func TestBaseWorldSeedsVirginStoreOnly(t *testing.T) {
	dir := t.TempDir()
	base := world.NewState()
	base.Set(9, world.Value{7})
	s, rec, err := Open(dir, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rec.State.Get(9); v[0] != 7 {
		t.Fatalf("base not seeded: %v", v)
	}
	s.Close()
	// Reopen without the base: the boot checkpoint captured it.
	s2, rec2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := rec2.State.Get(9); v[0] != 7 {
		t.Fatalf("base lost across reopen: %v", v)
	}
	if s2.Boot() != 2 {
		t.Fatalf("boot = %d", s2.Boot())
	}
}

func TestOpenOnFilePathFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(file, nil, Options{}); err == nil {
		t.Fatal("Open over a regular file succeeded")
	}
}

// TestOpenRefusesOlderLayouts: a directory an older store wrote holds a
// meta lineage, and the oldest also per-lane segments. Open names the
// first such file, and writes nothing: every file is as it was.
func TestOpenRefusesOlderLayouts(t *testing.T) {
	for _, legacy := range []string{"meta-00000000000000000006.log", "wal-3-00000000000000000006.log"} {
		dir := t.TempDir()
		s, _, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, legacy), []byte("an older store's log"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := readFiles(t, dir)
		if _, _, err := Open(dir, nil, Options{}); err == nil || !strings.Contains(err.Error(), legacy) {
			t.Fatalf("Open beside %s: %v, want an error naming it", legacy, err)
		}
		if after := readFiles(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("the refused Open beside %s changed the directory", legacy)
		}
	}
	// A directory that cannot be listed is an error too, not a virgin store.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanDir(file); err == nil {
		t.Fatal("scanDir listed a regular file")
	}
}

// TestTornGenerationIsNeverAppendedTo: a restart whose recovery stopped
// at a generation's first record must not write its own records behind
// the torn ones, where the next recovery cannot reach them. A synced
// install after that restart survives the one after it.
func TestTornGenerationIsNeverAppendedTo(t *testing.T) {
	install := func(s *Store) {
		t.Helper()
		commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	install(s)
	crash := crashCopy(t, s.dir)
	seg := newestSegment(t, crash)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != 0 {
		t.Fatalf("first recovery at %d, want 0: the torn record was read", rec.Restore.UpTo)
	}
	install(s2)
	s3, rec, err := Open(crashCopy(t, crash), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec.Restore.UpTo != 1 {
		t.Fatalf("second recovery at %d, want 1: a synced install was lost", rec.Restore.UpTo)
	}
}

func TestRecoverIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, "snapshot-garbage.state"), []byte("xx"), 0o644)
	os.WriteFile(filepath.Join(dir, "wal-x.log"), []byte("xx"), 0o644)
	s, rec, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec.Restore.UpTo != 0 || rec.State.Len() != 0 {
		t.Fatalf("recovered %d objects upTo %d from garbage", rec.State.Len(), rec.Restore.UpTo)
	}
}

func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	commit(s, 2, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 2)}})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)

	// Tear the last record: chop 3 bytes off the segment.
	seg := newestSegment(t, crash)
	raw, _ := os.ReadFile(seg)
	os.WriteFile(seg, raw[:len(raw)-3], 0o644)

	s2, rec, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != 1 {
		t.Fatalf("recovered up to %d, want 1 (torn record dropped)", rec.Restore.UpTo)
	}
	if v, _ := rec.State.Get(1); v[0] != 1 {
		t.Fatalf("obj 1 = %v, want 1", v)
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		commit(s, seq, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, float64(seq))}})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)

	// Flip a byte inside the second record's body (records are
	// equal-sized: same shape every commit).
	seg := newestSegment(t, crash)
	raw, _ := os.ReadFile(seg)
	recSize := len(raw) / 3
	raw[recSize+frameHdrLen+2] ^= 0xFF
	os.WriteFile(seg, raw, 0o644)

	s2, rec, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != 1 {
		t.Fatalf("recovered up to %d despite corruption, want 1", rec.Restore.UpTo)
	}
	if v, _ := rec.State.Get(1); v[0] != 1 {
		t.Fatalf("obj 1 = %v", v)
	}
}

// TestCheckpointRollsAndKeepsTwoGenerations: gc is keep-then-gc with a
// fallback generation — after several checkpoints exactly the two
// newest snapshot generations remain, and a corrupt newest snapshot
// falls back to the previous one plus its segment tail without losing
// a single install.
func TestCheckpointRollsAndKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	commit(s, 2, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(2, 2)}})
	if err := s.Checkpoint(); err != nil { // gen 1 (gen 0 = boot)
		t.Fatal(err)
	}
	commit(s, 3, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 100)}})
	commit(s, 4, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(3, 4)}})
	if err := s.Checkpoint(); err != nil { // gen 2; gen 0 collected
		t.Fatal(err)
	}
	// A crash image, not a Close: the shutdown checkpoint would cut a
	// generation of its own and collect generation 1.
	dir = crashCopy(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _, _ := scanDir(dir)
	if len(snaps) != 2 || snaps[0] != 1 || snaps[1] != 2 {
		t.Fatalf("snapshot generations = %v, want [1 2]", snaps)
	}

	// Corrupt the newest snapshot: recovery falls back to generation 1
	// and replays its segment (commits 3, 4) to the same install point.
	raw, _ := os.ReadFile(filepath.Join(dir, snapshotName(2)))
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(filepath.Join(dir, snapshotName(2)), raw, 0o644)

	s2, rec, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != 4 {
		t.Fatalf("upTo = %d, want 4 (fallback + tail replay)", rec.Restore.UpTo)
	}
	if v, _ := rec.State.Get(1); v[0] != 100 {
		t.Fatalf("obj 1 = %v", v)
	}
	if v, _ := rec.State.Get(3); v[0] != 4 {
		t.Fatalf("obj 3 = %v", v)
	}
}

// TestEveryFsyncPolicyRecovers drives the same commit groups through
// Open → journal → Close → Open under each fsync policy. Every policy
// records the group commits and cuts checkpoints, all three recover the
// same state and RestoreState, and — what makes the policy a policy —
// with groups outnumbering checkpoints FsyncCheckpoint fsyncs strictly
// fewer times than FsyncBatch over the same groups.
func TestEveryFsyncPolicyRecovers(t *testing.T) {
	const groups, snapshotEvery = 48, 16
	run := func(t *testing.T, opts Options) (Stats, *Recovery) {
		t.Helper()
		opts.SnapshotEvery = snapshotEvery
		dir := t.TempDir()
		s, _, err := Open(dir, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The boot checkpoint of a virgin directory is not the policy's.
		boot := s.Stats().Checkpoints
		s.SessionOpen(7, 0xBEEF, 0, 1, 0)
		for seq := uint64(1); seq <= groups; seq++ {
			s.CommitGroup(seq, uint32(seq), []core.CommitRecord{{
				Seq: seq, Origin: 7, ActSeq: uint32(seq),
				Res: action.Result{OK: true, Writes: []world.Write{write(world.ObjectID(1+seq%5), float64(seq))}},
			}})
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		st.Checkpoints -= boot
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, rec, err := Open(dir, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		return st, rec
	}

	policies := []struct {
		name string
		opts Options
	}{
		{"batch", Options{Fsync: FsyncBatch}},
		{"interval", Options{Fsync: FsyncInterval, FsyncEvery: time.Millisecond}},
		{"checkpoint", Options{Fsync: FsyncCheckpoint}},
	}
	stats := make([]Stats, len(policies))
	recs := make([]*Recovery, len(policies))
	for i, p := range policies {
		stats[i], recs[i] = run(t, p.opts)
		if st := stats[i]; st.GroupCommits != groups || st.Durable != groups || st.Checkpoints == 0 {
			t.Fatalf("%s: %d group commits through seq %d with %d checkpoints, want %d through %d and at least one",
				p.name, st.GroupCommits, st.Durable, st.Checkpoints, groups, groups)
		}
		if recs[i].Restore.UpTo != groups || recs[i].Restore.NextBlind != groups || len(recs[i].Restore.Sessions) != 1 {
			t.Fatalf("%s: recovered %+v", p.name, recs[i].Restore)
		}
		if !recs[i].State.Equal(recs[0].State) {
			t.Fatalf("%s: recovered state differs from %s's", p.name, policies[0].name)
		}
		if !reflect.DeepEqual(recs[i].Restore, recs[0].Restore) {
			t.Fatalf("%s: RestoreState differs from %s's:\n%+v\n%+v",
				p.name, policies[0].name, recs[i].Restore, recs[0].Restore)
		}
	}
	batch, ckpt := stats[0], stats[2]
	if ckpt.Checkpoints >= groups {
		t.Fatalf("checkpoints (%d) do not leave groups (%d) in the majority", ckpt.Checkpoints, groups)
	}
	if batch.Fsyncs < groups {
		t.Fatalf("FsyncBatch: %d fsyncs for %d groups, want one per group boundary", batch.Fsyncs, groups)
	}
	if ckpt.Fsyncs >= batch.Fsyncs {
		t.Fatalf("FsyncCheckpoint made %d fsyncs, FsyncBatch %d over the same groups", ckpt.Fsyncs, batch.Fsyncs)
	}
}

// TestCrashBetweenPublishAndGC: a kill landing after the new
// generation renamed into place but before gc ran leaves every old
// generation on disk; recovery must pick the newest intact pair and
// tolerate the leftovers. The window is only that benign if gc never
// runs ahead of the renames it relies on, so the order of every
// checkpoint's steps is asserted too: publish, then the directory fsync
// that makes the renames durable, then gc — and at the moment gc starts,
// the files it is about to orphan the old generation for are in place.
func TestCrashBetweenPublishAndGC(t *testing.T) {
	dir := t.TempDir()
	var steps []string
	var gcSawNewest []bool
	var mu sync.Mutex
	s, _, err := Open(dir, nil, WithSteps(Options{}, func(step string) {
		mu.Lock()
		defer mu.Unlock()
		if step != "publish" && step != "syncdir" && step != "gc" {
			return // the steps before the publish are TestCheckpointKeepsDraining's
		}
		steps = append(steps, step)
		if step == "syncdir" {
			// Between the fsync and the gc: the newest generation must be
			// fully renamed (no .tmp left) before anything is deleted.
			snaps, segs, _ := scanDir(dir)
			tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			ok := len(tmps) == 0 && len(snaps) > 0 && len(segs) > 0 && snaps[len(snaps)-1] == segs[len(segs)-1]
			gcSawNewest = append(gcSawNewest, ok)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		if len(steps) == 0 || len(steps)%3 != 0 {
			t.Fatalf("checkpoint steps %v: want whole publish/syncdir/gc triples", steps)
		}
		for i := 0; i < len(steps); i += 3 {
			if steps[i] != "publish" || steps[i+1] != "syncdir" || steps[i+2] != "gc" {
				t.Fatalf("checkpoint %d ran %v, want publish, syncdir, gc", i/3, steps[i:i+3])
			}
		}
		for i, ok := range gcSawNewest {
			if !ok {
				t.Fatalf("checkpoint %d: the newest generation was not fully in place when gc was cleared to run", i)
			}
		}
	}()
	commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	old := crashCopy(t, dir) // generation {0, 1} both present

	commit(s, 2, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 2)}})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)

	// Merge the pre-gc leftovers back in: the directory now holds every
	// generation at once, exactly what a kill between rename and gc
	// leaves behind.
	oldFiles, _ := os.ReadDir(old)
	for _, e := range oldFiles {
		dst := filepath.Join(crash, e.Name())
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		raw, _ := os.ReadFile(filepath.Join(old, e.Name()))
		os.WriteFile(dst, raw, 0o644)
	}

	s2, rec, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != 2 {
		t.Fatalf("upTo = %d, want 2 (newest generation wins)", rec.Restore.UpTo)
	}
	if v, _ := rec.State.Get(1); v[0] != 2 {
		t.Fatalf("obj 1 = %v", v)
	}
}

// TestShedGapFreezesCheckpoints: under DegradeShed a full queue drops
// records; the first dropped commit leaves a permanent gap — counted,
// shadow frozen, checkpoints refused — and recovery yields the
// faithful prefix before the gap.
func TestShedGapFreezesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	s, _, err := Open(dir, nil, WithGate(Options{Degrade: DegradeShed, QueueLen: 1}, gate))
	if err != nil {
		t.Fatal(err)
	}
	// The committer is parked on the gate: the one-slot queue fills with
	// the first commit, the second is shed.
	commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	commit(s, 2, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 2)}})
	if st := s.Stats(); st.ShedRecords != 1 {
		t.Fatalf("shed = %d, want 1", st.ShedRecords)
	}
	// Unpark the committer for the rest of the test.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case gate <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()
	// Drain the queue before the next commit so it is accepted, not
	// shed: commit 3 must land after the hole to expose the gap.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	commit(s, 3, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 3)}})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !st.Gapped {
		t.Fatalf("not gapped: %+v", st)
	}
	if st.Durable != 1 {
		t.Fatalf("durable = %d, want 1 (frozen at the gap)", st.Durable)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a gapped store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != 1 {
		t.Fatalf("recovered up to %d, want 1 (prefix before the gap)", rec.Restore.UpTo)
	}
	if v, _ := rec.State.Get(1); v[0] != 1 {
		t.Fatalf("obj 1 = %v", v)
	}
}

// TestSessionRecovery: session opens and dedup floors survive a crash —
// including sessions baked into a checkpoint and ones appended to the
// segment afterwards — and the stampFloor fence keeps a previous
// registration's commits from inflating the recovered floor.
func TestSessionRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Session 7 opens with stampFloor 2: commits at seq 1-2 belong to a
	// previous registration of the id and must not raise its floor.
	s.SessionOpen(7, 0xBEEF, 0b101, 1, 2)
	commit(s, 1, 0, 7, 9, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	commit(s, 2, 0, 7, 9, action.Result{OK: true})
	commit(s, 3, 0, 7, 5, action.Result{OK: true, Writes: []world.Write{write(2, 3)}})
	if err := s.Checkpoint(); err != nil { // bakes session 7
		t.Fatal(err)
	}
	// Session 8 opens after the checkpoint: it rides the segment.
	s.SessionOpen(8, 0xCAFE, 0, 2, 3)
	commit(s, 4, 0, 8, 1, action.Result{OK: true, Writes: []world.Write{write(3, 4)}})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)

	s2, rec, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != 4 {
		t.Fatalf("upTo = %d", rec.Restore.UpTo)
	}
	if rec.Restore.SessionSeq != 2 {
		t.Fatalf("sessionSeq = %d, want 2", rec.Restore.SessionSeq)
	}
	byID := map[action.ClientID]core.SessionRecord{}
	for _, sr := range rec.Restore.Sessions {
		byID[sr.ID] = sr
	}
	s7, ok := byID[7]
	if !ok {
		t.Fatal("session 7 lost")
	}
	if s7.Token != 0xBEEF || s7.Mask != 0b101 || s7.SeqNo != 1 {
		t.Fatalf("session 7 = %+v", s7)
	}
	// seq 1-2 carried actSeq 9 but sit at/below the stampFloor; only
	// seq 3's actSeq 5 is inside the current registration.
	if s7.LastActSeq != 5 {
		t.Fatalf("session 7 lastActSeq = %d, want 5 (stampFloor fence)", s7.LastActSeq)
	}
	s8, ok := byID[8]
	if !ok {
		t.Fatal("session 8 (opened after checkpoint) lost")
	}
	if s8.Token != 0xCAFE || s8.LastActSeq != 1 {
		t.Fatalf("session 8 = %+v", s8)
	}
}

// TestQuarantineRecovery: verdicts journaled before AND after a
// checkpoint both survive a crash-restart — the checkpoint re-bakes
// the set into the fresh image so gc of the original segment
// generation cannot lose them, and the first verdict per client wins
// across replays.
func TestQuarantineRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.SessionOpen(7, 0xBEEF, 0, 1, 0)
	commit(s, 1, 0, 7, 1, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	s.ClientQuarantined(3, 2, 1) // before the checkpoint: must re-bake
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.ClientQuarantined(9, 3, 2) // after: rides the segment
	s.ClientQuarantined(3, 6, 5) // duplicate: the first verdict stands
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	crash := crashCopy(t, dir)

	s2, rec, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := rec.Restore.Quarantined
	if len(q) != 2 {
		t.Fatalf("quarantined = %+v, want clients 3 and 9", q)
	}
	if q[0].ID != 3 || q[0].Reason != 2 || q[0].Seq != 1 {
		t.Fatalf("client 3 verdict = %+v, want first verdict (reason 2, seq 1)", q[0])
	}
	if q[1].ID != 9 || q[1].Reason != 3 || q[1].Seq != 2 {
		t.Fatalf("client 9 verdict = %+v", q[1])
	}
	// The sanitizing reopen checkpointed: a second crash-restart (after
	// gc had every chance to run) still holds the set.
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, rec3, err := Open(crash, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if len(rec3.Restore.Quarantined) != 2 {
		t.Fatalf("verdicts lost across second restart: %+v", rec3.Restore.Quarantined)
	}
}

// TestRecoverEqualsOracleProperty: for random histories of install
// passes, session opens and quarantine verdicts with checkpoints at
// random points, and a crash that may tear a segment or corrupt the
// newest image, recovery equals the serial oracle at the recovered
// position. After a clean shutdown the recovered sessions and verdicts
// equal the test's own model of them. Either way the recovered store
// has a second life: a pass committed and synced on it survives the
// next crash.
func TestRecoverEqualsOracleProperty(t *testing.T) {
	type modelSession struct {
		core.SessionRecord
		stampFloor uint64
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, _, err := Open(dir, nil, Options{})
		if err != nil {
			return false
		}
		defer s.Close()
		oracle := map[uint64]*world.State{0: world.NewState()}
		cur := world.NewState()
		sessions := map[action.ClientID]*modelSession{}
		verdicts := map[action.ClientID]core.QuarantineRecord{}
		var seq uint64
		n := rng.Intn(40) + 1
		for len(oracle) <= n {
			// One install pass of 1-4 entries.
			recs := make([]core.CommitRecord, rng.Intn(4)+1)
			for i := range recs {
				seq++
				res := action.Result{OK: rng.Intn(5) != 0}
				if res.OK {
					for k := 0; k < rng.Intn(3)+1; k++ {
						w := write(world.ObjectID(rng.Intn(6)+1), rng.Float64())
						res.Writes = append(res.Writes, w)
						cur.Set(w.ID, w.Val)
					}
				}
				origin := action.ClientID(rng.Intn(3) + 1)
				recs[i] = core.CommitRecord{Seq: seq, Origin: origin, ActSeq: uint32(seq), Res: res}
				if m := sessions[origin]; m != nil && seq > m.stampFloor {
					m.LastActSeq = uint32(seq)
				}
				oracle[seq] = cur.Clone()
			}
			s.CommitGroup(seq, uint32(seq), recs)
			if rng.Intn(8) == 0 {
				id, token, seqNo := action.ClientID(rng.Intn(3)+1), rng.Uint64(), uint64(rng.Intn(5)+1)
				s.SessionOpen(id, token, 0, seqNo, seq)
				sessions[id] = &modelSession{core.SessionRecord{ID: id, Token: token, SeqNo: seqNo}, seq}
			}
			if rng.Intn(12) == 0 {
				q := core.QuarantineRecord{ID: action.ClientID(rng.Intn(5) + 1), Reason: uint8(rng.Intn(4)), Seq: seq}
				s.ClientQuarantined(q.ID, q.Reason, q.Seq)
				if _, dup := verdicts[q.ID]; !dup {
					verdicts[q.ID] = q
				}
			}
			if rng.Intn(10) == 0 {
				if err := s.Checkpoint(); err != nil {
					return false
				}
			}
		}

		var s2 *Store
		var rec *Recovery
		clean := rng.Intn(2) == 0
		if clean {
			if err := s.Close(); err != nil {
				return false
			}
		} else {
			// Crash: maybe tear a segment tail, maybe corrupt the newest
			// image (the kept fallback generation must absorb it).
			if err := s.Sync(); err != nil {
				return false
			}
			dir = crashCopy(t, dir)
			_, segs, _ := scanDir(dir)
			if len(segs) > 0 && rng.Intn(2) == 0 {
				p := filepath.Join(dir, segmentName(segs[rng.Intn(len(segs))]))
				raw, _ := os.ReadFile(p)
				if len(raw) > 0 {
					os.WriteFile(p, raw[:rng.Intn(len(raw))], 0o644)
				}
			}
			if snaps, _, _ := scanDir(dir); len(snaps) > 1 && rng.Intn(3) == 0 {
				p := filepath.Join(dir, snapshotName(snaps[len(snaps)-1]))
				raw, _ := os.ReadFile(p)
				if len(raw) > 0 {
					raw[rng.Intn(len(raw))] ^= 0xFF
					os.WriteFile(p, raw, 0o644)
				}
			}
		}
		s2, rec, err = Open(dir, nil, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		defer s2.Close()
		upTo := rec.Restore.UpTo
		want, ok := oracle[upTo]
		if !ok || !rec.State.Equal(want) {
			t.Logf("seed %d: recovered through %d, state off the oracle", seed, upTo)
			return false
		}
		// Floors must never overstate the replay: every recovered session's
		// LastActSeq is a seq the replay actually reached.
		for _, sr := range rec.Restore.Sessions {
			if uint64(sr.LastActSeq) > upTo {
				t.Logf("seed %d: floor %d beyond upTo %d", seed, sr.LastActSeq, upTo)
				return false
			}
		}
		if clean {
			if upTo != seq {
				t.Logf("seed %d: a clean shutdown recovered through %d of %d", seed, upTo, seq)
				return false
			}
			var wantSessions []core.SessionRecord
			for _, m := range sessions {
				wantSessions = append(wantSessions, m.SessionRecord)
			}
			var wantVerdicts []core.QuarantineRecord
			for _, q := range verdicts {
				wantVerdicts = append(wantVerdicts, q)
			}
			byID := func(a, b core.SessionRecord) int { return int(a.ID) - int(b.ID) }
			gotSessions := slices.Clone(rec.Restore.Sessions)
			slices.SortFunc(wantSessions, byID)
			slices.SortFunc(gotSessions, byID)
			slices.SortFunc(wantVerdicts, func(a, b core.QuarantineRecord) int { return int(a.ID) - int(b.ID) })
			if !reflect.DeepEqual(gotSessions, wantSessions) || !reflect.DeepEqual(rec.Restore.Quarantined, wantVerdicts) {
				t.Logf("seed %d: recovered sessions %+v verdicts %+v, model %+v %+v",
					seed, gotSessions, rec.Restore.Quarantined, wantSessions, wantVerdicts)
				return false
			}
		}

		// The second life: one more pass on the recovered store, synced,
		// survives a crash.
		w := write(1, float64(seed))
		want = want.Clone()
		want.Set(w.ID, w.Val)
		s2.CommitGroup(upTo+1, 0, []core.CommitRecord{{Seq: upTo + 1, Res: action.Result{OK: true, Writes: []world.Write{w}}}})
		if err := s2.Sync(); err != nil {
			return false
		}
		s3, rec3, err := Open(crashCopy(t, dir), nil, Options{})
		if err != nil {
			t.Logf("seed %d: second recovery: %v", seed, err)
			return false
		}
		defer s3.Close()
		if rec3.Restore.UpTo != upTo+1 || !rec3.State.Equal(want) {
			t.Logf("seed %d: second recovery through %d, want %d: a synced install was lost", seed, rec3.Restore.UpTo, upTo+1)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRecover: arbitrary bytes in the files of two consecutive
// generations — two images and two segments, a slot left empty writing
// no file — must never panic Open, and a successful Open must be
// re-openable with a non-decreasing install point and no fewer verdicts
// (the boot checkpoint sanitizes the directory). A non-empty fifth slot
// writes a meta lineage, which only an older store layout holds: Open
// must refuse that directory and leave every file in it as it was.
func FuzzRecover(f *testing.F) {
	// Seed with a real store's two generations: sessions, commits and a
	// verdict in generation 0; then commits, a shed hole (seq 4 never
	// arrives), and the sessions and verdicts behind it in generation 1.
	// The hole freezes the store, so Close cuts no third generation.
	seedDir := f.TempDir()
	s, _, err := Open(seedDir, nil, Options{})
	if err != nil {
		f.Fatal(err)
	}
	s.SessionOpen(7, 1, 0, 1, 0)
	commit(s, 1, 0, 7, 1, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	commit(s, 2, 0, 7, 2, action.Result{OK: true, Writes: []world.Write{write(2, 2)}})
	s.ClientQuarantined(5, 3, 2)
	s.Checkpoint()
	commit(s, 3, 0, 7, 3, action.Result{OK: true, Writes: []world.Write{write(1, 3)}})
	commit(s, 5, 0, 7, 5, action.Result{OK: true, Writes: []world.Write{write(1, 5)}})
	s.SessionOpen(8, 2, 0, 2, 5)
	s.ClientQuarantined(6, 4, 5)
	s.Close()
	var seed [4][]byte
	for i, name := range []string{snapshotName(0), segmentName(0), snapshotName(1), segmentName(1)} {
		if seed[i], err = os.ReadFile(filepath.Join(seedDir, name)); err != nil || len(seed[i]) == 0 {
			f.Fatalf("seed store left %s empty: %v", name, err)
		}
	}
	img0, seg0, img1, seg1 := seed[0], seed[1], seed[2], seed[3]
	f.Add(img0, seg0, img1, seg1, []byte{})                                       // the store as it was left
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, []byte{})                       // nothing anywhere
	f.Add([]byte{1, 2, 3}, []byte{0xFF}, []byte{0, 0, 0, 0}, []byte{9}, []byte{}) // garbage everywhere
	f.Add(img0, seg0, img1[:len(img1)-1], seg1, []byte{})                         // a corrupt newest image
	f.Add([]byte{}, []byte{}, img1, seg1, []byte{})                               // generation 0 collected
	f.Add(img0, seg0, []byte{}, seg1, []byte{})                                   // a crash before image 1 was published
	f.Add(img0, seg0, img1, seg1, []byte("meta"))                                 // an older store's meta lineage
	f.Add(img0, seg0[:len(seg0)-3], []byte{}, seg1, []byte{})                     // a torn generation before an intact one

	f.Fuzz(func(t *testing.T, img0, seg0, img1, seg1, meta []byte) {
		dir := t.TempDir()
		for name, raw := range map[string][]byte{
			snapshotName(0): img0, segmentName(0): seg0,
			snapshotName(1): img1, segmentName(1): seg1,
			"meta-00000000000000000000.log": meta,
		} {
			if len(raw) > 0 {
				os.WriteFile(filepath.Join(dir, name), raw, 0o644)
			}
		}
		if len(meta) > 0 {
			before := readFiles(t, dir)
			if _, _, err := Open(dir, nil, Options{}); err == nil || !strings.Contains(err.Error(), "meta-00000000000000000000.log") {
				t.Fatalf("Open of an older layout: %v, want a refusal naming its meta lineage", err)
			}
			if after := readFiles(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatal("a refused Open changed the directory")
			}
			return
		}
		st, rec, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if rec.State == nil {
			t.Fatal("nil recovered state")
		}
		upTo := rec.Restore.UpTo
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		st2, rec2, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("reopen after sanitizing open: %v", err)
		}
		if rec2.Restore.UpTo < upTo {
			t.Fatalf("install point regressed: %d -> %d", upTo, rec2.Restore.UpTo)
		}
		// Quarantine verdicts only latch: the sanitizing open's boot
		// checkpoint bakes whatever it recovered, so a reopen can never
		// hold fewer verdicts.
		if len(rec2.Restore.Quarantined) < len(rec.Restore.Quarantined) {
			t.Fatalf("quarantine set shrank across reopen: %d -> %d",
				len(rec.Restore.Quarantined), len(rec2.Restore.Quarantined))
		}
		st2.Close()
	})
}

// readFiles maps every file in dir to its bytes.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
