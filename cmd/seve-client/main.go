// Command seve-client joins a seve-server world and walks an avatar
// around it, printing per-move response times — a command-line analogue
// of the paper's EMULab client machines.
//
// The -seed/-size/-walls flags must match the server's so both ends
// derive the same static geometry.
package main

import (
	"flag"
	"fmt"
	"log"
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
		moves    = flag.Int("moves", 100, "moves to submit")
		interval = flag.Duration("interval", 300*time.Millisecond, "time between moves")
		mode     = flag.String("mode", "infobound", "protocol level (must match server)")
		retries  = flag.Int("reconnect", 8, "reconnect attempts after a dropped connection (0 = exit on disconnect)")
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
		log.Fatalf("seve-client: %v", err)
	}

	if *retries > 0 {
		// ResumeWindow > 0 turns on client-side completion retention, the
		// half of the resume handshake the client owns.
		cfg.ResumeWindow = 16
	}
	cl, err := transport.Dial(*addr, cfg, 0)
	if err != nil {
		log.Fatalf("seve-client: %v", err)
	}
	defer cl.Close()
	cl.Reconnect = transport.ReconnectConfig{MaxAttempts: *retries, Jitter: 0.5}

	avatar := manhattan.AvatarID(int(cl.ID()))
	log.Printf("seve-client: joined as client %d (avatar object %d)", cl.ID(), avatar)

	var resp metrics.Recorder
	submitTimes := make(map[uint32]time.Time)
	committed := make(chan uint32, 64)
	dropped := 0
	droppedCh := make(chan action.ID, 16)
	cl.OnCommit = func(c core.Commit) { committed <- c.ActID.Seq }
	cl.OnDrop = func(id action.ID) { droppedCh <- id }
	runDone := make(chan error, 1)
	go func() { runDone <- cl.Run() }()

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	sent := 0
	for sent < *moves {
		select {
		case err := <-runDone:
			log.Fatalf("seve-client: connection lost: %v", err)
		case seq := <-committed:
			if at, ok := submitTimes[seq]; ok {
				resp.Add(float64(time.Since(at)) / float64(time.Millisecond))
				delete(submitTimes, seq)
			}
		case id := <-droppedCh:
			dropped++
			delete(submitTimes, id.Seq)
		case <-ticker.C:
			var mv *manhattan.MoveAction
			var err error
			cl.Engine(func(e *core.Client) {
				mv, err = w.NewMove(e.NextActionID(), avatar, e.Optimistic())
			})
			if err != nil {
				log.Fatalf("seve-client: %v", err)
			}
			submitTimes[mv.ID().Seq] = time.Now()
			if _, err := cl.Submit(mv); err != nil {
				if *retries == 0 {
					log.Fatalf("seve-client: %v", err)
				}
				// The action is queued on the engine; the resume
				// handshake re-submits it once the reconnect lands.
				log.Printf("seve-client: submit during disconnect (resume pending): %v", err)
			}
			sent++
		}
	}
	// Drain remaining commits briefly.
	deadline := time.After(5 * time.Second)
	for len(submitTimes) > 0 {
		select {
		case seq := <-committed:
			if at, ok := submitTimes[seq]; ok {
				resp.Add(float64(time.Since(at)) / float64(time.Millisecond))
				delete(submitTimes, seq)
			}
		case id := <-droppedCh:
			dropped++
			delete(submitTimes, id.Seq)
		case <-deadline:
			log.Printf("seve-client: %d moves unresolved at exit", len(submitTimes))
			goto done
		}
	}
done:
	fmt.Printf("moves: %d committed, %d dropped\n", resp.Count(), dropped)
	fmt.Printf("response ms: mean=%.1f p50=%.1f p95=%.1f max=%.1f\n",
		resp.Mean(), resp.Percentile(50), resp.Percentile(95), resp.Max())
}
