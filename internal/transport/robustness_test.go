package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/wire"
	"seve/internal/world"
)

// TestWriteQueueDropCounter pins the slow-client accounting: replies
// that cannot be queued are dropped (never block the engine loop) and
// every drop lands in ServerStats.WriteQueueDrops, while the one queued
// frame shows in the PoolOutstanding gauge until the queue lets it go.
func TestWriteQueueDropCounter(t *testing.T) {
	hub := NewHub(ServerConfig{Core: protocolConfig(), Init: world.NewState()}, new(sync.Mutex))
	idle := hub.Metrics().PoolOutstanding
	// A writer whose pump never runs: one slot, then the queue is full.
	// Built non-superseding so a full queue drops (the FIFO ladder rung).
	q := hub.NewQueue(1, false)
	id, _ := hub.Join(0, q)

	batchTo := func(id action.ClientID) core.Reply {
		return core.Reply{To: id, Msg: &wire.Batch{}, Deliver: core.Delivery{Class: core.DeliveryBatch}}
	}
	var out core.ServerOutput
	for i := 0; i < 3; i++ {
		out.Replies = append(out.Replies, batchTo(id))
	}
	// A reply to a never-registered client is skipped, not counted: the
	// counter measures backpressure, not departures.
	out.Replies = append(out.Replies, batchTo(99))
	hub.dispatch(out, 0)

	if got := hub.Metrics().WriteQueueDrops; got != 2 {
		t.Fatalf("WriteQueueDrops = %d, want 2", got)
	}
	hub.dispatch(core.ServerOutput{Replies: []core.Reply{batchTo(id)}}, 0)
	if got := hub.Metrics().WriteQueueDrops; got != 3 {
		t.Fatalf("WriteQueueDrops = %d after second burst, want 3", got)
	}
	if got := hub.Metrics().PoolOutstanding; got != idle+1 {
		t.Fatalf("PoolOutstanding = %d with one frame queued, want %d", got, idle+1)
	}
	q.Close()
	if got := hub.Metrics().PoolOutstanding; got != idle {
		t.Fatalf("PoolOutstanding = %d after Close, want %d", got, idle)
	}
}

// TestReadTimeoutDisconnectsSilentClient: with ReadTimeout set, a
// client that handshakes and then goes silent is disconnected; without
// it the historical wait-forever behavior must survive.
func TestReadTimeoutDisconnectsSilentClient(t *testing.T) {
	cfg := protocolConfig()
	srv := NewServer(ServerConfig{
		Core:        cfg,
		Init:        world.NewState(),
		ReadTimeout: 150 * time.Millisecond,
	})
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
	if err := wire.WriteFrame(conn, &wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(conn); err != nil {
		t.Fatalf("welcome read: %v", err)
	}
	// Stay silent. The server must hang up within a few timeouts; our
	// own deadline only bounds the test if it never does.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("server sent a frame to a silent client with no pushes configured")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("server did not disconnect the silent client")
	}

	// A silent pre-handshake connection is reaped too.
	conn2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	start = time.Now()
	one := make([]byte, 1)
	if _, err := conn2.Read(one); err == nil || time.Since(start) > 3*time.Second {
		t.Fatal("server did not reap the silent pre-handshake connection")
	}
}

// TestEndToEndTCPSharded reruns the full TCP round-trip on the sharded
// engine: every move must still commit and install, which also proves
// the engine loop's flush-on-idle (a buffered epoch that never flushed
// would stall every lone submission forever).
func TestEndToEndTCPSharded(t *testing.T) {
	w := testWorld()
	init := w.InitialState(0)
	cfg := protocolConfig()
	cfg.Shards = 4

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
	errs := make(chan error, clients*2)
	for ci := 0; ci < clients; ci++ {
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
			go func() { _ = cl.Run() }()

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
				select {
				case <-committed:
				case <-time.After(10 * time.Second):
					errs <- timeoutErr{}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Installed() != clients*movesPer && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Installed(); got != clients*movesPer {
		t.Fatalf("sharded server installed %d of %d actions", got, clients*movesPer)
	}
	if rs := srv.RouterMetrics(); rs.Shards != 4 || rs.Epochs == 0 {
		t.Fatalf("router stats not live: %+v", rs)
	}
}
