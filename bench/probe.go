package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/transport"
	"seve/internal/world"
)

const (
	probeConns   = 2 // the host allows as many connections as processors
	probeLength  = time.Second
	probeTimeout = 2 * time.Second
)

// sockProbe is the one stage the in-process driver skips, measured on
// its own: two real loopback connections against a transport.Server,
// one move in flight at a time, for a second. It returns the median
// submit→commit time in µs and the commit rate. Loopback on a shared
// two-processor host did not repeat within a tenth, so both numbers are
// layer metrics, stated as loopback, and gate nothing.
func sockProbe(w *manhattan.World, init *world.State, cfg core.Config) (p50us, perSec float64, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := transport.NewServer(transport.ServerConfig{Core: cfg, Init: init})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		l.Close()
		if serr := <-served; err == nil {
			err = serr
		}
	}()

	type conn struct {
		cl      *transport.Client
		settled chan struct{}
		ran     chan error
	}
	var conns []*conn
	defer func() {
		for _, c := range conns {
			c.cl.Close()
			<-c.ran
		}
	}()
	for i := 0; i < probeConns; i++ {
		cl, err := transport.Dial(l.Addr().String(), cfg, 0)
		if err != nil {
			return 0, 0, err
		}
		// One move in flight per connection, so one slot is enough.
		c := &conn{cl: cl, settled: make(chan struct{}, 1), ran: make(chan error, 1)}
		cl.OnCommit = func(core.Commit) { c.settled <- struct{}{} }
		go func() { c.ran <- cl.Run() }()
		conns = append(conns, c)
	}

	var samples []float64
	start := time.Now()
	for i := 0; time.Since(start) < probeLength; i++ {
		c := conns[i%len(conns)]
		var mv *manhattan.MoveAction
		var merr error
		c.cl.Engine(func(e *core.Client) {
			mv, merr = w.NewMove(e.NextActionID(), manhattan.AvatarID(int(e.ID())), e.Optimistic())
		})
		if merr != nil {
			return 0, 0, merr
		}
		t0 := time.Now()
		if _, err := c.cl.Submit(mv); err != nil {
			return 0, 0, err
		}
		select {
		case <-c.settled:
			samples = append(samples, float64(time.Since(t0))/1e3)
		case err := <-c.ran:
			c.ran <- err
			return 0, 0, fmt.Errorf("connection lost: %w", err)
		case <-time.After(probeTimeout):
			return 0, 0, errors.New("move unresolved after 2s")
		}
	}
	return percentile(samples, 50), float64(len(samples)) / time.Since(start).Seconds(), nil
}
