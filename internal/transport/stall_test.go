package transport

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/wire"
)

// The tests in this file hold the transport's lock contract: a peer that
// stops reading holds no lock another caller needs (DESIGN.md §9). They
// run over net.Pipe, whose Write blocks until the peer reads: a peer
// that reads one byte of a frame and stops leaves the writer provably
// stalled mid-Write. That is the only synchronisation; nothing sleeps,
// except one poll for a teardown the engine loop runs on its own.

// stallDeadline bounds every call these tests expect to return. Without
// a lock held across the stalled write the calls take microseconds;
// with one they block for as long as the peer stays silent.
const stallDeadline = 2 * time.Second

// pipeListener is a net.Listener whose connections are net.Pipe pairs:
// dial hands Accept one end and returns the other.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close ends Accept; servePipes's cleanup calls it once.
func (l *pipeListener) Close() error {
	close(l.closed)
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// servePipes starts a server on a pipeListener, stopped when the test
// ends.
func servePipes(t *testing.T, cfg core.Config) (*Server, *pipeListener) {
	t.Helper()
	srv := NewServer(ServerConfig{Core: cfg, Init: testWorld().InitialState(0), Logf: t.Logf})
	l := newPipeListener()
	serveDone := async(func() { srv.Serve(l) })
	t.Cleanup(func() {
		srv.Close()
		l.Close()
		<-serveDone
	})
	return srv, l
}

// async runs f on its own goroutine; the channel closes when f returns.
func async(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// returned reports whether done closed within stallDeadline.
func returned(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	case <-time.After(stallDeadline):
		return false
	}
}

// stallAfterOneByte reads a single byte of the next frame from conn and
// stops: the peer's write of that frame is now stalled mid-Write.
func stallAfterOneByte(conn net.Conn) error {
	var one [1]byte
	_, err := io.ReadFull(conn, one[:])
	return err
}

// newMove builds the client's next move of its own avatar.
func newMove(t *testing.T, w *manhattan.World, cl *Client) *manhattan.MoveAction {
	t.Helper()
	var mv *manhattan.MoveAction
	var err error
	cl.Engine(func(e *core.Client) {
		mv, err = w.NewMove(e.NextActionID(), manhattan.AvatarID(int(e.ID())), e.Optimistic())
	})
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

// TestStalledClientWriteHoldsNoLock: a Client whose peer stops reading
// mid-frame is stalled in a write, and Metrics and Close must still
// return. In "submit" the stalled write is Submit's frame (row L1); in
// "completion" the peer answers the submit with its batch and the
// stalled write is the completion Run sends back (row L3).
func TestStalledClientWriteHoldsNoLock(t *testing.T) {
	for _, stage := range []string{"submit", "completion"} {
		t.Run(stage, func(t *testing.T) {
			w := testWorld()
			conn, peer := net.Pipe()
			defer peer.Close() // ends the stalled write however the test ends
			stalled := make(chan error, 1)
			go func() {
				stalled <- func() error {
					if _, err := wire.ReadFrame(peer); err != nil {
						return err
					}
					if err := wire.WriteFrame(peer, &wire.Welcome{You: 1, Init: w.InitialState(0).Writes()}); err != nil {
						return err
					}
					if stage == "completion" {
						msg, err := wire.ReadFrame(peer)
						if err != nil {
							return err
						}
						sub, ok := msg.(*wire.Submit)
						if !ok {
							return fmt.Errorf("peer read message type %d, want a Submit", msg.Type())
						}
						env := sub.Env
						env.Seq = 1
						if err := wire.WriteFrame(peer, &wire.Batch{Envs: []action.Envelope{env}, ClientSeq: 1}); err != nil {
							return err
						}
					}
					return stallAfterOneByte(peer)
				}()
			}()
			cl, err := join(conn, "", protocolConfig(), 0)
			if err != nil {
				t.Fatal(err)
			}
			// Run and Submit end with errors once the pipe closes; only
			// their return matters here.
			runDone := async(func() { cl.Run() })
			mv := newMove(t, w, cl)
			submitDone := async(func() { cl.Submit(mv) })
			if err := <-stalled; err != nil {
				t.Fatal(err)
			}

			if !returned(async(func() { cl.Metrics() })) {
				t.Errorf("Metrics blocked past %v behind the stalled %s write", stallDeadline, stage)
			}
			if !returned(async(func() { cl.Close() })) {
				t.Errorf("Close blocked past %v behind the stalled %s write", stallDeadline, stage)
			}
			peer.Close()
			<-submitDone
			<-runDone
		})
	}
}

// TestStalledJoinerHoldsNoServerLock: joiner A sends its Hello and stops
// reading one byte into its Welcome, stalling the server's handshake
// write; client B's move must still commit (row L2).
func TestStalledJoinerHoldsNoServerLock(t *testing.T) {
	w := testWorld()
	cfg := protocolConfig()
	_, l := servePipes(t, cfg)

	b, err := join(l.dial(), "", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan core.Commit, 1)
	b.OnCommit = func(c core.Commit) { committed <- c }
	runDone := async(func() { b.Run() })
	defer func() {
		b.Close()
		<-runDone
	}()

	a := l.dial()
	defer a.Close()
	if err := wire.WriteFrame(a, &wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	if err := stallAfterOneByte(a); err != nil {
		t.Fatal(err)
	}

	if _, err := b.Submit(newMove(t, w, b)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-committed:
	case <-time.After(stallDeadline):
		t.Fatalf("B's move did not commit within %v while A's Welcome write was stalled", stallDeadline)
	}
}

// TestFailedWelcomeLeaves: a joiner that sends its Hello, reads one byte
// of its Welcome and hangs up fails the server's handshake write. The
// joiner must leave as a reader-side disconnect does: the engine stops
// tracking it and its writer queue goes.
func TestFailedWelcomeLeaves(t *testing.T) {
	srv, l := servePipes(t, protocolConfig())
	tracked0 := srv.Metrics().TrackedClients

	a := l.dial()
	if err := wire.WriteFrame(a, &wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	if err := stallAfterOneByte(a); err != nil {
		t.Fatal(err)
	}
	a.Close()

	// The server's first joiner is client 1. The leave travels through
	// the engine loop on its own; poll for it.
	var tracked int
	var q *SendQueue
	for deadline := time.Now().Add(stallDeadline); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if tracked, q = srv.Metrics().TrackedClients, srv.hub.Queue(1); tracked == tracked0 && q == nil {
			return
		}
	}
	t.Fatalf("after a failed Welcome write: tracked %d (was %d), writer registered: %v", tracked, tracked0, q != nil)
}

// TestServerCloseDisconnectsEveryone: Close returns with an idle client
// connected and a joiner stalled in its Welcome write, and the idle
// client's Run sees the hang-up and returns.
func TestServerCloseDisconnectsEveryone(t *testing.T) {
	cfg := protocolConfig()
	srv, l := servePipes(t, cfg)

	cl, err := join(l.dial(), "", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	runDone := async(func() { cl.Run() })
	a := l.dial()
	defer a.Close()
	if err := wire.WriteFrame(a, &wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	if err := stallAfterOneByte(a); err != nil {
		t.Fatal(err)
	}

	if !returned(async(srv.Close)) {
		t.Errorf("Server.Close blocked past %v with an idle client and a stalled joiner", stallDeadline)
	}
	if !returned(runDone) {
		t.Errorf("the idle client's Run did not return within %v of Server.Close", stallDeadline)
	}
}

// TestCloseDuringResumeStopsRun: Close lands while Run waits for a
// resume's CatchUp. The verdict then arrives, and Run must return nil
// rather than keep reading the freshly resumed connection.
func TestCloseDuringResumeStopsRun(t *testing.T) {
	resumeL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resumeL.Close()

	conn, peer := net.Pipe()
	go func() {
		if _, err := wire.ReadFrame(peer); err == nil {
			wire.WriteFrame(peer, &wire.Welcome{You: 1, Token: 7})
		}
	}()
	cl, err := join(conn, resumeL.Addr().String(), protocolConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Reconnect = ReconnectConfig{MaxAttempts: 1, BaseDelay: time.Millisecond}
	runErr := make(chan error, 1)
	go func() { runErr <- cl.Run() }()
	peer.Close() // the link dies; Run re-dials resumeL

	rc, err := resumeL.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	msg, err := wire.ReadFrame(rc)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := msg.(*wire.Resume); !ok || r.Token != 7 {
		t.Fatalf("resume handshake sent %#v, want a Resume with token 7", msg)
	}
	cl.Close()
	if err := wire.WriteFrame(rc, &wire.CatchUp{OK: true}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v after Close, want nil", err)
		}
	case <-time.After(stallDeadline):
		t.Fatalf("Run still reading the resumed connection %v after Close", stallDeadline)
	}
}

// TestHandshakeAfterWelcomeIsOrdinary: a joined client that sends a
// second Hello and a Resume carrying its own token hands the engine two
// ordinary messages, not two more handshakes. Another client must
// still join and commit, and Close must return.
func TestHandshakeAfterWelcomeIsOrdinary(t *testing.T) {
	w := testWorld()
	cfg := protocolConfig()
	cfg.ResumeWindow = 8
	srv, l := servePipes(t, cfg)

	a := l.dial()
	defer a.Close()
	if err := wire.WriteFrame(a, &wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(a)
	if err != nil {
		t.Fatal(err)
	}
	welcome, ok := msg.(*wire.Welcome)
	if !ok {
		t.Fatalf("handshake answered %#v, want a Welcome", msg)
	}
	for _, m := range []wire.Msg{&wire.Hello{}, &wire.Resume{Token: welcome.Token}} {
		if err := wire.WriteFrame(a, m); err != nil {
			t.Fatal(err)
		}
	}
	// The engine answers the Resume on A's connection; once the CatchUp
	// arrives, both frames have been through the engine loop.
	caughtUp := make(chan struct{})
	go func() {
		for {
			m, err := wire.ReadFrame(a)
			if err != nil {
				return
			}
			if _, ok := m.(*wire.CatchUp); ok {
				close(caughtUp)
			}
		}
	}()
	if !returned(caughtUp) {
		t.Fatalf("no CatchUp within %v for a Resume sent after the Welcome", stallDeadline)
	}

	b, err := join(l.dial(), "", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	committed := make(chan core.Commit, 1)
	b.OnCommit = func(c core.Commit) { committed <- c }
	runDone := async(func() { b.Run() })
	defer func() {
		b.Close()
		<-runDone
	}()
	if _, err := b.Submit(newMove(t, w, b)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-committed:
	case <-time.After(stallDeadline):
		t.Fatalf("B's move did not commit within %v after A repeated its handshake", stallDeadline)
	}
	if !returned(async(srv.Close)) {
		t.Errorf("Server.Close blocked past %v after a repeated handshake", stallDeadline)
	}
}
