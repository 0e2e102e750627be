package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/world"
)

// openParked opens a store whose committer goroutine has not been
// started, so a test can run its drain and its tick by hand, and returns
// the function that starts it and closes the store.
func openParked(t *testing.T, opts Options) (*Store, *committer, func()) {
	t.Helper()
	s, c, _, err := open(t.TempDir(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, c, func() {
		go c.run()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitterWritesInGroups feeds the committer a session record per
// client, 256 of them, then one install pass of an entry per client, lets
// it wake once per round, and fires the interval tick after each.
// Everything a wake finds queued must reach the kernel in one write, at
// least ten records to the write, and a tick may cost no more than one
// fsync.
func TestCommitterWritesInGroups(t *testing.T) {
	const clients, rounds = 256, 12
	s, c, closeStore := openParked(t, Options{
		Fsync:         FsyncInterval,
		FsyncEvery:    time.Hour, // the test is the ticker
		SnapshotEvery: 1 << 40,
		QueueLen:      clients + 1,
	})
	for id := action.ClientID(1); id <= clients; id++ {
		s.SessionOpen(id, uint64(id), 0, uint64(id), 0)
		if id%64 == 0 {
			c.drain(nil)
		}
	}
	c.sync()
	base := s.Stats()

	var seq uint64
	for r := 1; r <= rounds; r++ {
		installed := seq
		recs := make([]core.CommitRecord, clients)
		for i := range recs {
			seq++
			recs[i] = core.CommitRecord{
				Seq: seq, Origin: action.ClientID(i + 1), ActSeq: uint32(r),
				Res: action.Result{OK: true, Writes: []world.Write{write(world.ObjectID(i+1), float64(seq), 0, 1, 0)}},
			}
			s.SessionOpen(action.ClientID(i+1), uint64(i+1), uint64(r), uint64(i+1), installed)
		}
		s.CommitGroup(uint64(r), 0, recs)

		before := s.Stats()
		if c.drain(nil) {
			t.Fatal("drain saw a stop")
		}
		after := s.Stats()
		if got := after.Records - before.Records; got != clients+1 {
			t.Fatalf("round %d: the wake took %d records, want %d", r, got, clients+1)
		}
		if got := after.Writes - before.Writes; got != 1 {
			t.Fatalf("round %d: %d writes for one wake's records, want one", r, got)
		}
		if len(c.seg.buf) != 0 {
			t.Fatalf("round %d: %d bytes left in user space after the drain", r, len(c.seg.buf))
		}
		c.sync() // the interval tick
		if got := s.Stats().Fsyncs - after.Fsyncs; got != 1 {
			t.Fatalf("round %d: the tick cost %d fsyncs, want 1", r, got)
		}
		c.sync() // and a tick that finds nothing dirty costs nothing
		if got := s.Stats().Fsyncs - after.Fsyncs; got != 1 {
			t.Fatalf("round %d: an idle tick fsynced", r)
		}
	}
	st := s.Stats()
	if records, writes := st.Records-base.Records, st.Writes-base.Writes; records < 10*writes {
		t.Fatalf("%d records in %d writes: fewer than ten to the write", records, writes)
	}
	if st.GroupCommits != rounds || st.Durable != seq || st.BlockedNs != 0 {
		t.Fatalf("stats after %d rounds: %+v", rounds, st)
	}
	closeStore()

	s2, rec, err := Open(s.dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Restore.UpTo != seq || len(rec.Restore.Sessions) != clients {
		t.Fatalf("recovered through %d with %d sessions, want %d and %d", rec.Restore.UpTo, len(rec.Restore.Sessions), seq, clients)
	}
	for _, sr := range rec.Restore.Sessions {
		if sr.Mask != rounds || sr.LastActSeq != rounds {
			t.Fatalf("session %d recovered with the open of round %d, action %d; want %d", sr.ID, sr.Mask, sr.LastActSeq, rounds)
		}
	}
}

// TestWriteBufferIsBounded: the gathered records never outgrow the
// standing buffer — it is written out when the next record would not fit
// — and a record larger than the buffer goes through without being kept.
func TestWriteBufferIsBounded(t *testing.T) {
	const verdicts = 4000
	s, c, closeStore := openParked(t, Options{SnapshotEvery: 1 << 40, QueueLen: verdicts})
	for id := action.ClientID(1); id <= verdicts; id++ {
		s.ClientQuarantined(id, 1, uint64(id))
	}
	c.drain(nil)
	wantWrites := (verdicts*quarantineRecLen + writeBufCap - 1) / writeBufCap
	if st := s.Stats(); st.Records != verdicts || st.Writes != wantWrites {
		t.Fatalf("%d records of %d bytes in %d writes, want %d writes of at most %d bytes", st.Records, quarantineRecLen, st.Writes, wantWrites, writeBufCap)
	}
	if cap(c.seg.buf) != writeBufCap {
		t.Fatalf("standing buffer holds %d bytes, want %d", cap(c.seg.buf), writeBufCap)
	}

	// One install pass of twice the buffer, between two small records.
	s.ClientQuarantined(verdicts+1, 1, 1)
	big := write(1, make([]float64, writeBufCap/4)...)
	commit(s, 1, 0, 0, 0, action.Result{OK: true, Writes: []world.Write{big}})
	s.ClientQuarantined(verdicts+2, 1, 1)
	before := s.Stats().Writes
	c.drain(nil)
	if got := s.Stats().Writes - before; got != 3 {
		t.Fatalf("small, oversized, small: %d writes, want 3", got)
	}
	if cap(c.seg.buf) > writeBufCap {
		t.Fatalf("the oversized record left a %d-byte buffer behind", cap(c.seg.buf))
	}
	closeStore()

	s2, rec, err := Open(s.dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(rec.Restore.Quarantined); got != verdicts+2 {
		t.Fatalf("%d verdicts recovered, want %d: a record was lost around a buffer boundary", got, verdicts+2)
	}
	if v, _ := rec.State.Get(1); rec.Restore.UpTo != 1 || !v.Equal(big.Val) {
		t.Fatalf("the oversized pass was not recovered: through %d", rec.Restore.UpTo)
	}
}

// TestSendBooksBlockedTime: a journal call that finds the queue full
// waits for the committer, and the wait — only the wait — is charged to
// BlockedNs. Whether a given send blocks depends on it reaching the full
// queue before the drain does; the drain is held back a moment, and a
// round that lost the race anyway is simply run again.
func TestSendBooksBlockedTime(t *testing.T) {
	s, c, closeStore := openParked(t, Options{QueueLen: 1})
	defer closeStore()
	var seq uint64
	for try := 0; try < 100 && s.Stats().BlockedNs == 0; try++ {
		seq++
		commit(s, seq, 0, 0, 0, action.Result{OK: true}) // fills the queue
		if st := s.Stats(); st.BlockedNs != 0 {
			t.Fatalf("a send into a free queue booked %d ns", st.BlockedNs)
		}
		drained := make(chan struct{})
		go func() {
			time.Sleep(2 * time.Millisecond)
			c.drain(nil)
			close(drained)
		}()
		seq++
		commit(s, seq, 0, 0, 0, action.Result{OK: true}) // waits for the drain
		<-drained
		c.drain(nil)
	}
	if st := s.Stats(); st.BlockedNs == 0 || st.Durable != seq {
		t.Fatalf("no send ever blocked on the one-slot queue: %+v", st)
	}
}

// TestRecordSizesMatchEncoders: a checkpoint sizes its image from these
// before it builds it; they must stay what the encoders produce.
func TestRecordSizesMatchEncoders(t *testing.T) {
	if got := len(appendQuarantineRecord(nil, walQuarantine{id: 1, reason: 2, seq: 3})); got != quarantineRecLen {
		t.Errorf("quarantine record is %d bytes, quarantineRecLen says %d", got, quarantineRecLen)
	}
	if got := len(appendImageRecord(nil, newShadow(), nil)); got != imageHdrLen {
		t.Errorf("an empty world's image record is %d bytes, imageHdrLen says %d", got, imageHdrLen)
	}
	if got := len(appendImageSess(nil, shadowSession{walSession: walSession{id: 7}, lastActSeq: 1})); got != imageSessLen {
		t.Errorf("baked session is %d bytes, imageSessLen says %d", got, imageSessLen)
	}
	sh := newShadow()
	sh.state.Set(3, world.Value{1, 2})
	sh.open(walSession{id: 7})
	sh.quarantine(walQuarantine{id: 9})
	if img := sh.image(); len(img) != cap(img) {
		t.Errorf("an image of %d bytes was sized %d", len(img), cap(img))
	}
}

// TestCheckpointKeepsDraining: a checkpoint cuts its image where the
// shadow stands and goes back to the queue between its waits on the
// disk. What it takes there must land behind the image, in the new
// generation's segment — nested checkpoints must wait, a barrier met in the queue must
// end the catching up and be answered after the checkpoint with the jobs
// behind it still in order, and a crash at any step must recover to a
// prefix of the feed.
func TestCheckpointKeepsDraining(t *testing.T) {
	oracle := map[uint64]*world.State{0: world.NewState()}
	cur := world.NewState()
	var s *Store
	feed := func(seq uint64, origin action.ClientID) {
		w := write(world.ObjectID(seq%3+1), float64(seq))
		cur.Set(w.ID, w.Val)
		oracle[seq] = cur.Clone()
		commit(s, seq, int32(seq%4), origin, uint32(seq), action.Result{OK: true, Writes: []world.Write{w}})
	}

	// The engine's part: what it queues while the committer waits on the
	// disk, here at the moment the images are cut.
	const behind = 1 + 1 + 1 + 5 + 1 // commit 5, then what whileCutting queues up to the barrier
	barrier := make(chan error, 1)
	whileCutting := func() {
		s.SessionOpen(8, 0x8, 0, 2, 5)
		s.SessionOpen(7, 0x7, 0b1, 1, 5) // a re-open, told apart by its mask
		for seq := uint64(6); seq <= 10; seq++ {
			feed(seq, 8) // crosses SnapshotEvery again: must not nest
		}
		s.ClientQuarantined(9, 3, 6)
		s.jobs <- job{op: opBarrier, done: barrier}
		feed(11, 8) // behind the barrier: not to be taken before it is answered
		s.SessionOpen(11, 0x11, 0, 3, 11)
	}

	type image struct {
		step    string
		dir     string
		records int
	}
	var images []image
	var dir string
	s, c, closeStore := openParked(t, WithSteps(Options{SnapshotEvery: 4, QueueLen: 64}, func(step string) {
		if s == nil {
			return // the boot checkpoint
		}
		if len(images) == 0 {
			whileCutting()
		}
		images = append(images, image{step, crashCopy(t, dir), s.Stats().Records})
	}))
	dir = s.dir

	s.SessionOpen(7, 0x7, 0, 1, 0)
	for seq := uint64(1); seq <= 5; seq++ {
		feed(seq, 7) // the fourth crosses SnapshotEvery; the fifth waits behind it
	}
	if c.drain(nil) {
		t.Fatal("drain saw a stop")
	}
	select {
	case err := <-barrier:
		if err != nil {
			t.Fatalf("barrier: %v", err)
		}
	default:
		t.Fatal("the barrier met during the checkpoint was never answered")
	}
	// Checkpoints: boot, the one cut at 4, and the one the suppressed
	// crossing was owed as soon as the first was done.
	if st := s.Stats(); st.Checkpoints != 3 || st.Durable != 11 || st.Records != 5+behind+2 {
		t.Fatalf("after the drain: %+v", st)
	}

	first := images[:4]
	for i, want := range []string{"cut", "publish", "syncdir", "gc"} {
		if first[i].step != want {
			t.Fatalf("step %d of the checkpoint was %q, want %q", i, first[i].step, want)
		}
	}
	if got := first[0].records; got != 5 {
		t.Fatalf("%d records taken when the images were cut, want the 5 up to the crossing", got)
	}
	if got := first[1].records; got != 5+behind {
		t.Fatalf("%d records taken by the time the image was published, want %d: everything up to the barrier and nothing past it", got, 5+behind)
	}
	// On disk: generation 0's segment ends at the cut, generation 1's
	// carries what came after.
	commits := func(name string) (seqs []uint64) {
		raw, err := os.ReadFile(filepath.Join(first[1].dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var arena writeArena
		scanRecords(raw, func(body []byte) bool {
			if _, entries, err := decodeCommitRecord(body, &arena, nil); err == nil {
				for _, e := range entries {
					seqs = append(seqs, e.seq)
				}
			}
			return true
		})
		return seqs
	}
	if got := commits(segmentName(0)); len(got) != 4 || got[3] != 4 {
		t.Fatalf("generation 0's segment holds %v, want 1 through 4", got)
	}
	if got := commits(segmentName(1)); len(got) != 6 || got[0] != 5 || got[5] != 10 {
		t.Fatalf("generation 1's segment holds %v, want 5 through 10", got)
	}

	for _, im := range first {
		s2, rec, err := Open(im.dir, nil, Options{})
		if err != nil {
			t.Fatalf("crash after %q: %v", im.step, err)
		}
		s2.Close()
		upTo := rec.Restore.UpTo
		if upTo < 4 || upTo > 10 || !rec.State.Equal(oracle[upTo]) {
			t.Fatalf("crash after %q: recovered through %d; state equals the oracle's there: %v", im.step, upTo, oracle[upTo] != nil && rec.State.Equal(oracle[upTo]))
		}
		if im.step == "cut" {
			continue // the old image: what had not been taken yet is a lost suffix
		}
		// The new image, then what was taken after the cut.
		if upTo != 10 {
			t.Fatalf("crash after %q: recovered through %d, want 10", im.step, upTo)
		}
		byID := map[action.ClientID]core.SessionRecord{}
		for _, sr := range rec.Restore.Sessions {
			byID[sr.ID] = sr
		}
		if s7, s8 := byID[7], byID[8]; s7.Token != 0x7 || s7.Mask != 0b1 || s8.Token != 0x8 || s8.LastActSeq != 10 {
			t.Fatalf("crash after %q: session 7 %+v, session 8 %+v", im.step, s7, s8)
		}
		if q := rec.Restore.Quarantined; len(q) != 1 || q[0].ID != 9 {
			t.Fatalf("crash after %q: verdicts %+v", im.step, q)
		}
	}

	closeStore()
	s3, rec, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec.Restore.UpTo != 11 || !rec.State.Equal(oracle[11]) || len(rec.Restore.Sessions) != 3 {
		t.Fatalf("after a clean close: through %d, %d sessions", rec.Restore.UpTo, len(rec.Restore.Sessions))
	}
}

// TestCrashMidCheckpointProperty: for random multi-lane histories, with
// the committer running and the feed racing it, a directory imaged at a
// random step of a checkpoint — between the cut and the gc, records taken
// in between and all — recovers to the serial oracle at the position
// it reaches, with no session floor beyond it.
func TestCrashMidCheckpointProperty(t *testing.T) {
	steps := []string{"cut", "publish", "syncdir", "gc"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		image := t.TempDir()
		// Checkpoint 0 is the boot checkpoint; how many follow depends on
		// how the committer and the feed interleave, but one always does.
		wantStep, wantCkpt := steps[rng.Intn(len(steps))], 1
		ckpt, taken := 0, false
		var imageErr error
		s, _, err := Open(dir, nil, WithSteps(Options{SnapshotEvery: uint64(rng.Intn(6) + 2), QueueLen: 8}, func(step string) {
			if step == wantStep && ckpt == wantCkpt && !taken {
				taken = true
				imageErr = copyDir(dir, image)
			}
			if step == "gc" {
				ckpt++
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[uint64]*world.State{0: world.NewState()}
		cur := world.NewState()
		var seq uint64
		for seq < 60 {
			recs := make([]core.CommitRecord, rng.Intn(4)+1)
			for i := range recs {
				seq++
				res := action.Result{OK: rng.Intn(5) != 0}
				if res.OK {
					w := write(world.ObjectID(rng.Intn(6)+1), rng.Float64())
					res.Writes = append(res.Writes, w)
					cur.Set(w.ID, w.Val)
				}
				recs[i] = core.CommitRecord{Seq: seq, Origin: action.ClientID(rng.Intn(3) + 1), ActSeq: uint32(seq), Res: res}
				oracle[seq] = cur.Clone()
			}
			s.CommitGroup(seq, uint32(seq), recs)
			if rng.Intn(4) == 0 {
				s.SessionOpen(action.ClientID(rng.Intn(3)+1), rng.Uint64(), 0, uint64(rng.Intn(5)+1), seq)
			}
		}
		if err := s.Close(); err != nil { // waits for the committer: the hook is done
			t.Fatal(err)
		}
		if imageErr != nil {
			t.Fatal(imageErr)
		}
		if !taken {
			t.Fatalf("seed %d: checkpoint %d never reached step %q (%d checkpoints ran, stats %+v)", seed, wantCkpt, wantStep, ckpt, s.Stats())
		}
		s2, rec, err := Open(image, nil, Options{})
		if err != nil {
			t.Fatalf("seed %d: crash after %q of checkpoint %d: %v", seed, wantStep, wantCkpt, err)
		}
		s2.Close()
		want, ok := oracle[rec.Restore.UpTo]
		if !ok || !rec.State.Equal(want) {
			t.Fatalf("seed %d: crash after %q of checkpoint %d: recovered through %d, state off the oracle", seed, wantStep, wantCkpt, rec.Restore.UpTo)
		}
		for _, sr := range rec.Restore.Sessions {
			if uint64(sr.LastActSeq) > rec.Restore.UpTo {
				t.Fatalf("seed %d: session %d's floor %d is beyond the recovered position %d", seed, sr.ID, sr.LastActSeq, rec.Restore.UpTo)
			}
		}
	}
}

// copyDir images src into dst file by file, like crashCopy, for callers
// off the test goroutine.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
