package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// commit feeds one single-entry install pass through the journal.
func commit(s *Store, seq uint64, lane int32, origin action.ClientID, actSeq uint32, res action.Result) {
	s.CommitGroup(seq, 0, []core.CommitRecord{{Seq: seq, Lane: lane, Origin: origin, ActSeq: actSeq, Res: res}})
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
	_, _, segs := scanDir(dir)
	best := ""
	var bestStart uint64
	for _, sg := range segs {
		if best == "" || sg.start >= bestStart {
			best, bestStart = sg.name, sg.start
		}
	}
	if best == "" {
		t.Fatal("no segment")
	}
	return filepath.Join(dir, best)
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
	if err := s.Checkpoint(); err != nil { // gen 2 (gen 0 = boot)
		t.Fatal(err)
	}
	commit(s, 3, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(1, 100)}})
	commit(s, 4, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{write(3, 4)}})
	if err := s.Checkpoint(); err != nil { // gen 4; gen 0 collected
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _, _ := scanDir(dir)
	if len(snaps) != 2 || snaps[0] != 2 || snaps[1] != 4 {
		t.Fatalf("snapshot generations = %v, want [2 4]", snaps)
	}

	// Corrupt the newest snapshot: recovery falls back to generation 2
	// and replays its segment (commits 3, 4) to the same install point.
	raw, _ := os.ReadFile(filepath.Join(dir, snapshotName(4)))
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(filepath.Join(dir, snapshotName(4)), raw, 0o644)

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
			snaps, metas, _ := scanDir(dir)
			tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			ok := len(tmps) == 0 && len(snaps) > 0 && len(metas) > 0 && snaps[len(snaps)-1] == metas[len(metas)-1]
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
// meta lineage afterwards — and the stampFloor fence keeps a previous
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
	// Session 8 opens after the checkpoint: appended to the meta tail.
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
// the set into the fresh meta lineage so gc of the original segment
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
	s.ClientQuarantined(9, 3, 2) // after: rides the meta tail
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

// TestRecoverEqualsOracleProperty: for random multi-lane histories
// with checkpoints at random points, sessions opening along the way,
// and a crash that may tear or corrupt the newest files, recovery
// equals the serial oracle at the recovered position.
func TestRecoverEqualsOracleProperty(t *testing.T) {
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
		var seq uint64
		n := rng.Intn(40) + 1
		for len(oracle) <= n {
			// One install pass of 1-4 entries spread over up to 3 lanes.
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
				recs[i] = core.CommitRecord{Seq: seq, Lane: int32(seq % 3), Origin: action.ClientID(rng.Intn(3) + 1), ActSeq: uint32(seq), Res: res}
				oracle[seq] = cur.Clone()
			}
			s.CommitGroup(seq, uint32(seq), recs)
			if rng.Intn(8) == 0 {
				s.SessionOpen(action.ClientID(rng.Intn(3)+1), rng.Uint64(), 0, uint64(rng.Intn(5)+1), seq)
			}
			if rng.Intn(10) == 0 {
				if err := s.Checkpoint(); err != nil {
					return false
				}
			}
		}

		var rec *Recovery
		if rng.Intn(2) == 0 {
			// Clean shutdown.
			if err := s.Close(); err != nil {
				return false
			}
			s2, r, err := Open(dir, nil, Options{})
			if err != nil {
				return false
			}
			defer s2.Close()
			rec = r
		} else {
			// Crash: maybe tear a segment tail, maybe corrupt the newest
			// snapshot (the kept fallback generation must absorb it).
			if err := s.Sync(); err != nil {
				return false
			}
			crash := crashCopy(t, dir)
			_, _, segs := scanDir(crash)
			if len(segs) > 0 && rng.Intn(2) == 0 {
				sg := segs[rng.Intn(len(segs))]
				raw, _ := os.ReadFile(filepath.Join(crash, sg.name))
				if len(raw) > 0 {
					os.WriteFile(filepath.Join(crash, sg.name), raw[:rng.Intn(len(raw))], 0o644)
				}
			}
			if snaps, _, _ := scanDir(crash); len(snaps) > 1 && rng.Intn(3) == 0 {
				p := filepath.Join(crash, snapshotName(snaps[len(snaps)-1]))
				raw, _ := os.ReadFile(p)
				if len(raw) > 0 {
					raw[rng.Intn(len(raw))] ^= 0xFF
					os.WriteFile(p, raw, 0o644)
				}
			}
			s2, r, err := Open(crash, nil, Options{})
			if err != nil {
				return false
			}
			defer s2.Close()
			rec = r
		}
		want, ok := oracle[rec.Restore.UpTo]
		if !ok {
			t.Logf("seed %d: recovered to unknown position %d", seed, rec.Restore.UpTo)
			return false
		}
		if !rec.State.Equal(want) {
			t.Logf("seed %d: state mismatch at %d", seed, rec.Restore.UpTo)
			return false
		}
		// Floors must never overstate the walk: every recovered session's
		// LastActSeq is a seq the walk actually reached.
		for _, sr := range rec.Restore.Sessions {
			if uint64(sr.LastActSeq) > rec.Restore.UpTo {
				t.Logf("seed %d: floor %d beyond upTo %d", seed, sr.LastActSeq, rec.Restore.UpTo)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRecover: arbitrary bytes in the store's file slots must never
// panic Open, and a successful Open must be re-openable with a
// non-decreasing install point (the boot checkpoint sanitizes the
// directory). The segment slots are one of each layout — laneSeg lands
// in a per-lane file of generation 0 as older stores wrote them, seg in
// the shared file of generation 2 — so the corpus covers a directory in
// the old layout, in the new one, and the mix an upgrade passes through.
func FuzzRecover(f *testing.F) {
	// Seed with a real store's artifacts: the records of generation 0,
	// then a checkpoint at 2, then the records of generation 2.
	seedDir := f.TempDir()
	s, _, err := Open(seedDir, nil, Options{})
	if err != nil {
		f.Fatal(err)
	}
	s.SessionOpen(7, 1, 0, 1, 0)
	commit(s, 1, 0, 7, 1, action.Result{OK: true, Writes: []world.Write{write(1, 1)}})
	commit(s, 2, 0, 7, 2, action.Result{OK: true, Writes: []world.Write{write(2, 2)}})
	s.ClientQuarantined(5, 3, 2)
	s.Sync()
	seedGen0, _ := os.ReadFile(filepath.Join(seedDir, segmentName(0)))
	s.Checkpoint()
	commit(s, 3, 0, 7, 3, action.Result{OK: true, Writes: []world.Write{write(1, 3)}})
	s.ClientQuarantined(6, 4, 3)
	s.Sync()
	seedGen2, _ := os.ReadFile(filepath.Join(seedDir, segmentName(2)))
	seedSnap, _ := os.ReadFile(filepath.Join(seedDir, snapshotName(2)))
	seedMeta, _ := os.ReadFile(filepath.Join(seedDir, metaName(2)))
	s.Close()
	// A meta lineage an older store wrote: two reply-batch records and two
	// sessions baked with their retained batches, which recovery skips.
	legacyMeta, _ := os.ReadFile(filepath.Join(perLaneDir, metaName(6)))
	if len(seedGen0) == 0 || len(seedGen2) == 0 || len(seedSnap) == 0 || len(seedMeta) == 0 || len(legacyMeta) == 0 {
		f.Fatal("seed store left an artifact empty")
	}
	f.Add(seedGen0, seedSnap, seedMeta, []byte{})                       // old layout
	f.Add([]byte{}, []byte{}, []byte{}, []byte{})                       // nothing anywhere
	f.Add([]byte{1, 2, 3}, []byte{0xFF}, []byte{0, 0, 0, 0}, []byte{9}) // garbage everywhere
	f.Add([]byte{}, seedSnap, seedMeta, seedGen2)                       // new layout
	f.Add(seedGen0, seedSnap, seedMeta, seedGen2)                       // an upgrade's mix
	f.Add(seedGen2, []byte{}, seedMeta, seedGen0)                       // the same entries claimed by both, no snapshot
	f.Add(seedGen0, seedSnap, legacyMeta, seedGen2)                     // an older store's meta lineage

	f.Fuzz(func(t *testing.T, laneSeg, snap, meta, seg []byte) {
		dir := t.TempDir()
		os.WriteFile(filepath.Join(dir, laneSegmentName(0, 0)), laneSeg, 0o644)
		os.WriteFile(filepath.Join(dir, snapshotName(2)), snap, 0o644)
		os.WriteFile(filepath.Join(dir, metaName(2)), meta, 0o644)
		os.WriteFile(filepath.Join(dir, segmentName(2)), seg, 0o644)
		st, rec, err := Open(dir, nil, Options{})
		if err != nil {
			return
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
		// checkpoint re-bakes whatever it recovered, so a reopen can
		// never hold fewer verdicts.
		if len(rec2.Restore.Quarantined) < len(rec.Restore.Quarantined) {
			t.Fatalf("quarantine set shrank across reopen: %d -> %d",
				len(rec.Restore.Quarantined), len(rec2.Restore.Quarantined))
		}
		st2.Close()
	})
}
