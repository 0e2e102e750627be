package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/manhattan"
	"seve/internal/world"
)

var registerOnce sync.Once

// testWorld builds the shared workload world and registers the move
// decoder (once per process; the wire registry is global).
func testWorld() *manhattan.World {
	cfg := manhattan.DefaultConfig()
	cfg.Width, cfg.Height = 200, 200
	cfg.NumWalls = 200
	cfg.NumAvatars = 4
	cfg.Seed = 11
	w := manhattan.NewWorld(cfg)
	registerOnce.Do(func() { manhattan.RegisterWire(w) })
	return w
}

func protocolConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncomplete // deterministic: no timing-dependent pushes
	cfg.Strict = true
	return cfg
}

// TestEndToEndTCP runs a real server and three real clients over
// loopback TCP: every submitted move must commit, and the server must
// install every action.
func TestEndToEndTCP(t *testing.T) {
	w := testWorld()
	init := w.InitialState(0)
	cfg := protocolConfig()

	srv := NewServer(ServerConfig{Core: cfg, Init: init, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		l.Close()
		<-serveDone
	}()

	const clients = 3
	const movesPer = 5

	var wg sync.WaitGroup
	commitCounts := make([]int, clients)
	errs := make(chan error, clients*2)

	for ci := 0; ci < clients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(l.Addr().String(), cfg, 0)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()

			committed := make(chan core.Commit, movesPer)
			cl.OnCommit = func(c core.Commit) { committed <- c }
			runDone := make(chan error, 1)
			go func() { runDone <- cl.Run() }()

			avatar := manhattan.AvatarID(int(cl.ID()))
			for m := 0; m < movesPer; m++ {
				var mv *manhattan.MoveAction
				cl.Engine(func(e *core.Client) {
					mv, err = w.NewMove(e.NextActionID(), avatar, e.Optimistic())
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := cl.Submit(mv); err != nil {
					errs <- err
					return
				}
				// Wait for the commit before the next move, bounding
				// in-flight actions for a deterministic test.
				select {
				case <-committed:
					commitCounts[ci]++
				case <-time.After(10 * time.Second):
					errs <- timeoutErr{}
					return
				}
			}
			cl.Close()
			if err := <-runDone; err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for ci, n := range commitCounts {
		if n != movesPer {
			t.Fatalf("client %d committed %d of %d moves", ci, n, movesPer)
		}
	}
	// All completions may still be in flight; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Installed() != clients*movesPer && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Installed(); got != clients*movesPer {
		t.Fatalf("server installed %d of %d actions", got, clients*movesPer)
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string { return "timed out waiting for commit" }

// TestDialRejectsNonServer verifies the handshake fails cleanly against
// a listener that closes immediately.
func TestDialRejectsNonServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	if _, err := Dial(l.Addr().String(), protocolConfig(), 0); err == nil {
		t.Fatal("dial against closing peer succeeded")
	}
}

// TestServerSurvivesClientDisconnect: a client that joins, submits, and
// vanishes must not wedge the server for others.
func TestServerSurvivesClientDisconnect(t *testing.T) {
	w := testWorld()
	init := w.InitialState(0)
	cfg := protocolConfig()
	// Failure tolerance lets the survivor complete the deserter's action.
	cfg.FailureTolerant = true

	srv := NewServer(ServerConfig{Core: cfg, Init: init})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		l.Close()
		<-serveDone
	}()

	// Deserter joins and vanishes without completing anything.
	deserter, err := Dial(l.Addr().String(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	avatarD := manhattan.AvatarID(int(deserter.ID()))
	var mv *manhattan.MoveAction
	deserter.Engine(func(e *core.Client) {
		mv, err = w.NewMove(e.NextActionID(), avatarD, e.Optimistic())
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deserter.Submit(mv); err != nil {
		t.Fatal(err)
	}
	deserter.Close() // never reads the reply, never completes

	// Survivor joins and works; its avatar is adjacent in id space but
	// the world is sparse, so its moves are independent — they must
	// commit regardless of the deserter's unfinished action.
	survivor, err := Dial(l.Addr().String(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	committed := make(chan core.Commit, 4)
	survivor.OnCommit = func(c core.Commit) { committed <- c }
	go func() { _ = survivor.Run() }()

	avatarS := manhattan.AvatarID(int(survivor.ID()))
	for m := 0; m < 3; m++ {
		var smv *manhattan.MoveAction
		survivor.Engine(func(e *core.Client) {
			smv, err = w.NewMove(e.NextActionID(), avatarS, e.Optimistic())
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := survivor.Submit(smv); err != nil {
			t.Fatal(err)
		}
		select {
		case <-committed:
		case <-time.After(10 * time.Second):
			t.Fatal("survivor commit timed out after deserter left")
		}
	}
	_ = action.OriginServer
	_ = world.ObjectID(0)
}

// TestDurableServerRecovers: a server journaling to disk is stopped,
// its world recovered, and a second server constructed over the
// recovery resumes at the same install point and keeps serving.
func TestDurableServerRecovers(t *testing.T) {
	w := testWorld()
	init := w.InitialState(0)
	cfg := protocolConfig()

	dir := t.TempDir()
	store, recovery, err := durable.Open(dir, init, durable.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Core: cfg, Init: init, Durable: store, Recovery: recovery})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	cl, err := Dial(l.Addr().String(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan core.Commit, 8)
	cl.OnCommit = func(c core.Commit) { committed <- c }
	go func() { _ = cl.Run() }()

	avatar := manhattan.AvatarID(int(cl.ID()))
	const moves = 7
	for m := 0; m < moves; m++ {
		var mv *manhattan.MoveAction
		cl.Engine(func(e *core.Client) {
			mv, err = w.NewMove(e.NextActionID(), avatar, e.Optimistic())
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Submit(mv); err != nil {
			t.Fatal(err)
		}
		select {
		case <-committed:
		case <-time.After(10 * time.Second):
			t.Fatal("commit timeout")
		}
	}
	// Let the completion for the last move reach the server.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Installed() != moves && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Installed() != moves {
		t.Fatalf("installed %d of %d", srv.Installed(), moves)
	}
	var want world.Value
	cl.Engine(func(e *core.Client) {
		v, _ := e.Stable().Get(avatar)
		want = v.Clone()
	})
	cl.Close()
	srv.Close()
	l.Close()
	<-serveDone
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	// The committer's write-path counters surface beside the other WAL
	// ones: every install was a record, carried by some write, made
	// durable by some fsync.
	if st := srv.Metrics(); st.WALRecords < moves || st.WALWrites == 0 || st.WALWrites > st.WALRecords || st.WALFsyncs == 0 {
		t.Fatalf("WAL write counters: %d records, %d writes, %d fsyncs", st.WALRecords, st.WALWrites, st.WALFsyncs)
	}
	store.Close()

	// Recover from disk: the avatar is where the client left it.
	store2, rec2, err := durable.Open(dir, init, durable.Options{SnapshotEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Restore.UpTo != moves {
		t.Fatalf("recovered up to %d, want %d", rec2.Restore.UpTo, moves)
	}
	gv, ok := rec2.State.Get(avatar)
	if !ok || !gv.Equal(want) {
		t.Fatalf("recovered avatar = %v, want %v", gv, want)
	}

	// Crash-restart = resume: a fresh server over the recovery starts
	// at the durable install point and keeps committing past it.
	srv2 := NewServer(ServerConfig{Core: cfg, Init: init, Durable: store2, Recovery: rec2})
	if srv2.Installed() != moves {
		t.Fatalf("restarted server installed = %d, want %d", srv2.Installed(), moves)
	}
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone2 := make(chan error, 1)
	go func() { serveDone2 <- srv2.Serve(l2) }()
	cl2, err := Dial(l2.Addr().String(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	committed2 := make(chan core.Commit, 4)
	cl2.OnCommit = func(c core.Commit) { committed2 <- c }
	go func() { _ = cl2.Run() }()
	avatar2 := manhattan.AvatarID(int(cl2.ID()))
	var mv2 *manhattan.MoveAction
	cl2.Engine(func(e *core.Client) {
		mv2, err = w.NewMove(e.NextActionID(), avatar2, e.Optimistic())
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Submit(mv2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-committed2:
	case <-time.After(10 * time.Second):
		t.Fatal("restarted server never committed")
	}
	deadline = time.Now().Add(5 * time.Second)
	for srv2.Installed() != moves+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv2.Installed() != moves+1 {
		t.Fatalf("restarted server installed %d, want %d", srv2.Installed(), moves+1)
	}
	cl2.Close()
	srv2.Close()
	l2.Close()
	<-serveDone2
	store2.Close()
}
