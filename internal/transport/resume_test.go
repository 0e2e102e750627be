package transport

import (
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/wire"
)

func resumeConfig() core.Config {
	cfg := protocolConfig()
	cfg.ResumeWindow = 8
	return cfg
}

// TestReconnectResumesSession hard-closes a client's socket mid-session
// and verifies the transport re-dials, resumes with the server-granted
// token, and keeps committing on the same engine — no re-join, no lost
// identity.
func TestReconnectResumesSession(t *testing.T) {
	w := testWorld()
	init := w.InitialState(0)
	cfg := resumeConfig()

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

	cl, err := Dial(l.Addr().String(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Token() == 0 {
		t.Fatal("server granted no session token despite ResumeWindow > 0")
	}
	cl.Reconnect = ReconnectConfig{
		MaxAttempts: 20,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Jitter:      0.5,
		Rand:        rand.New(rand.NewSource(1)),
	}
	committed := make(chan core.Commit, 16)
	cl.OnCommit = func(c core.Commit) { committed <- c }
	runDone := make(chan error, 1)
	go func() { runDone <- cl.Run() }()

	avatar := manhattan.AvatarID(int(cl.ID()))
	submit := func() {
		t.Helper()
		var mv *manhattan.MoveAction
		var err error
		cl.Engine(func(e *core.Client) {
			mv, err = w.NewMove(e.NextActionID(), avatar, e.Optimistic())
		})
		if err != nil {
			t.Fatal(err)
		}
		// A submit during the disconnect window may fail to write; the
		// action stays queued and the resume handshake re-submits it.
		_, _ = cl.Submit(mv)
	}
	waitCommit := func() {
		t.Helper()
		select {
		case <-committed:
		case <-time.After(10 * time.Second):
			t.Fatal("commit timeout")
		}
	}

	const before, after = 3, 3
	for i := 0; i < before; i++ {
		submit()
		waitCommit()
	}

	// Sever the link out from under the engine, as a dying network would.
	cl.mu.Lock()
	conn := cl.conn
	cl.mu.Unlock()
	conn.Close()

	// The run loop must resume rather than exit.
	deadline := time.Now().Add(10 * time.Second)
	for cl.Metrics().Resumes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never resumed")
		}
		select {
		case err := <-runDone:
			t.Fatalf("Run exited instead of resuming: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}

	for i := 0; i < after; i++ {
		submit()
		waitCommit()
	}

	st := cl.Metrics()
	if st.ReconnectAttempts == 0 {
		t.Error("no reconnect attempts counted")
	}
	if st.Resumes == 0 {
		t.Error("no resumes counted on the engine")
	}
	ss := srv.Metrics()
	if ss.ResumesSuffix+ss.ResumesSnapshot == 0 {
		t.Errorf("server counted no accepted resumes: %+v", ss)
	}

	total := uint64(before + after)
	pollDeadline := time.Now().Add(5 * time.Second)
	for srv.Installed() != total && time.Now().Before(pollDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Installed(); got != total {
		t.Fatalf("server installed %d of %d actions", got, total)
	}
}

// TestResumeRejectedBadToken: a Resume with a token the server never
// granted gets CatchUp{OK: false} and a hang-up, and is counted.
func TestResumeRejectedBadToken(t *testing.T) {
	w := testWorld()
	srv := NewServer(ServerConfig{Core: resumeConfig(), Init: w.InitialState(0), Logf: t.Logf})
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

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, &wire.Resume{Token: 0xdeadbeef, LastBatchSeq: 0}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	cu, ok := msg.(*wire.CatchUp)
	if !ok {
		t.Fatalf("expected CatchUp, got type %d", msg.Type())
	}
	if cu.OK {
		t.Fatal("forged token accepted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().ResumesRejected == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Metrics().ResumesRejected == 0 {
		t.Error("rejection not counted")
	}
}

// TestWriterPumpNoLeak is the regression test for the per-connection
// writer goroutine: clients that join and vanish (including mid-resume
// handshakes) must not strand pump goroutines or pooled frames until
// server shutdown.
func TestWriterPumpNoLeak(t *testing.T) {
	w := testWorld()
	cfg := resumeConfig()
	srv := NewServer(ServerConfig{Core: cfg, Init: w.InitialState(0)})
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

	// Warm up one connection so lazily started goroutines (pollers etc.)
	// are part of the baseline.
	warm, err := Dial(l.Addr().String(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	const cycles = 20
	for i := 0; i < cycles; i++ {
		cl, err := Dial(l.Addr().String(), cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Park live frames in the delivery queue: closure replies the
		// client never reads, so the teardown (leave event closing the
		// queue) races dispatch enqueues and the pump's drain. Replaced
		// or still-queued frames must all return to the pool — the pool
		// sentinels panic on a double release.
		avatar := manhattan.AvatarID(int(cl.ID()))
		for m := 0; m < 3; m++ {
			var mv *manhattan.MoveAction
			var merr error
			cl.Engine(func(e *core.Client) {
				mv, merr = w.NewMove(e.NextActionID(), avatar, e.Optimistic())
			})
			if merr != nil {
				break
			}
			if _, err := cl.Submit(mv); err != nil {
				break
			}
		}
		// Vanish without reading a single frame: the reader pump sees the
		// close, and the writer pump must follow via connDone rather than
		// waiting for a write error that may never come.
		cl.Close()

		// And a rejected resume handshake, which must not leak either.
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wire.WriteFrame(conn, &wire.Resume{Token: uint64(i) + 1})
		wire.ReadFrame(conn)
		conn.Close()
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
