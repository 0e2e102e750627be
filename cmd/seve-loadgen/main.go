// Command seve-loadgen drives a fleet of real TCP clients against a
// seve-server — the in-process analogue of the paper's 64 EMULab client
// machines. Each simulated player walks its avatar at the Table I rate;
// the tool prints aggregate response-time statistics.
//
// Usage:
//
//	seve-server -addr :7777 -walls 10000 &
//	seve-loadgen -addr 127.0.0.1:7777 -walls 10000 -clients 32 -moves 50
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/metrics"
	"seve/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7777", "server address")
		seed     = flag.Int64("seed", 1, "world seed (must match server)")
		size     = flag.Float64("size", 1000, "world side length")
		walls    = flag.Int("walls", 10_000, "number of walls")
		avatars  = flag.Int("avatars", 64, "maximum clients/avatars (must match server)")
		clients  = flag.Int("clients", 8, "fleet size")
		moves    = flag.Int("moves", 50, "moves per client")
		interval = flag.Duration("interval", 300*time.Millisecond, "time between moves")
		mode     = flag.String("mode", "infobound", "protocol level (must match server)")
	)
	flag.Parse()

	wcfg := manhattan.DefaultConfig()
	wcfg.Seed = *seed
	wcfg.Width, wcfg.Height = *size, *size
	wcfg.NumWalls = *walls
	wcfg.NumAvatars = *avatars
	w := manhattan.NewWorld(wcfg)
	manhattan.RegisterWire(w)

	cfg := core.DefaultConfig()
	var err error
	if cfg.Mode, err = core.ParseMode(*mode); err != nil {
		log.Fatalf("seve-loadgen: %v", err)
	}

	var (
		mu       sync.Mutex
		resp     metrics.Recorder
		dropped  int
		failures int
	)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runPlayer(*addr, cfg, w, *moves, *interval, &mu, &resp, &dropped); err != nil {
				mu.Lock()
				failures++
				mu.Unlock()
				log.Printf("seve-loadgen: player: %v", err)
			}
		}()
		// Stagger joins like real players trickling in.
		time.Sleep(*interval / time.Duration(*clients))
	}
	wg.Wait()

	fmt.Printf("fleet: %d clients x %d moves in %.1fs (%d failures)\n",
		*clients, *moves, time.Since(start).Seconds(), failures)
	fmt.Printf("committed: %d, dropped: %d\n", resp.Count(), dropped)
	fmt.Printf("response ms: mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		resp.Mean(), resp.Percentile(50), resp.Percentile(95), resp.Percentile(99), resp.Max())
}

// runPlayer joins, walks, and reports its samples into the shared
// recorder.
func runPlayer(addr string, cfg core.Config, w *manhattan.World, moves int,
	interval time.Duration, mu *sync.Mutex, resp *metrics.Recorder, dropped *int) error {

	cl, err := transport.Dial(addr, cfg, 0)
	if err != nil {
		return err
	}
	defer cl.Close()

	type pending struct{ at time.Time }
	var pmu sync.Mutex
	inflight := map[uint32]pending{}
	done := make(chan struct{}, moves)

	cl.OnCommit = func(c core.Commit) {
		pmu.Lock()
		p, ok := inflight[c.ActID.Seq]
		delete(inflight, c.ActID.Seq)
		pmu.Unlock()
		if ok {
			mu.Lock()
			resp.Add(float64(time.Since(p.at)) / float64(time.Millisecond))
			mu.Unlock()
		}
		done <- struct{}{}
	}
	cl.OnDrop = func(id action.ID) {
		pmu.Lock()
		delete(inflight, id.Seq)
		pmu.Unlock()
		mu.Lock()
		*dropped++
		mu.Unlock()
		done <- struct{}{}
	}
	runErr := make(chan error, 1)
	go func() { runErr <- cl.Run() }()

	avatar := manhattan.AvatarID(int(cl.ID()))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for m := 0; m < moves; m++ {
		select {
		case err := <-runErr:
			return fmt.Errorf("connection lost: %w", err)
		case <-ticker.C:
		}
		var mv *manhattan.MoveAction
		var mkErr error
		cl.Engine(func(e *core.Client) {
			mv, mkErr = w.NewMove(e.NextActionID(), avatar, e.Optimistic())
		})
		if mkErr != nil {
			return mkErr
		}
		pmu.Lock()
		inflight[mv.ID().Seq] = pending{at: time.Now()}
		pmu.Unlock()
		if _, err := cl.Submit(mv); err != nil {
			return err
		}
	}
	// Wait for all resolutions (commit or drop), bounded.
	deadline := time.After(15 * time.Second)
	for resolved := 0; resolved < moves; resolved++ {
		select {
		case <-done:
		case <-deadline:
			return fmt.Errorf("%d moves unresolved at deadline", moves-resolved)
		}
	}
	return nil
}
