// Command seve-server runs a SEVE world server over TCP.
//
// It hosts a Manhattan People world; clients (cmd/seve-client) connect,
// receive the initial world, and submit moves. The server executes no
// game logic — it timestamps actions, computes transitive closures, and
// relays (Section III of the paper).
//
// The workload world is derived deterministically from -seed and the
// size flags, so clients started with the same flags share the same
// walls without any geometry crossing the wire.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"time"

	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/manhattan"
	"seve/internal/transport"
)

func main() {
	var (
		addr    = flag.String("addr", ":7777", "listen address")
		seed    = flag.Int64("seed", 1, "world seed (must match clients)")
		size    = flag.Float64("size", 1000, "world side length")
		walls   = flag.Int("walls", 10_000, "number of walls")
		avatars = flag.Int("avatars", 64, "maximum number of clients/avatars")
		mode    = flag.String("mode", "infobound", "protocol level: basic|incomplete|firstbound|infobound")
		rtt     = flag.Float64("rtt", 100, "assumed client RTT in ms (bound models)")
		data    = flag.String("data", "", "directory for the durability journal and checkpoints (empty = in-memory only)")
		fsync   = flag.String("fsync", "batch", "journal fsync policy: batch|interval|checkpoint")
		fsyncMs = flag.Int("fsync-interval-ms", 50, "fsync period for -fsync=interval")
		snapEvr = flag.Uint64("snapshot-every", 4096, "installed actions between epoch checkpoints")
		degrade = flag.String("wal-degrade", "block", "behavior when the journal cannot keep up: block (backpressure, stop acknowledging on error) | shed (drop records, keep serving)")
		shards  = flag.Int("shards", 0, "shard lanes for the sharded serializer (0 or 1 = single-lane engine)")
		resume  = flag.Int("resume-window", 16, "committed batches retained per client for session resume (0 = disconnects are final)")
		audit   = flag.Float64("audit", 0.05, "fraction of completions the integrity auditor re-executes against the authoritative state (0 = validator only, 1 = audit everything; DESIGN.md §16)")
		maxRate = flag.Float64("max-submit-rate", 0, "per-client submissions/second cap (0 = unlimited)")
		verbose = flag.Bool("v", false, "log client joins and drops")
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
	cfg.Shards = *shards
	cfg.ResumeWindow = *resume
	cfg.RTTMs = *rtt
	cfg.MaxSpeed = wcfg.Speed
	cfg.DefaultRadius = wcfg.EffectRange
	cfg.Threshold = 1.5 * wcfg.Visibility
	cfg.AuditRate = *audit
	cfg.MaxSubmitRate = *maxRate
	var err error
	if cfg.Mode, err = core.ParseMode(*mode); err != nil {
		fmt.Fprintf(os.Stderr, "seve-server: %v\n", err)
		os.Exit(2)
	}

	init := w.InitialState(0)
	scfg := transport.ServerConfig{Core: cfg, Init: init}
	if *verbose {
		scfg.Logf = log.Printf
	}
	if *data != "" {
		opts := durable.Options{
			FsyncEvery:    time.Duration(*fsyncMs) * time.Millisecond,
			SnapshotEvery: *snapEvr,
		}
		switch *fsync {
		case "batch":
			opts.Fsync = durable.FsyncBatch
		case "interval":
			opts.Fsync = durable.FsyncInterval
		case "checkpoint":
			opts.Fsync = durable.FsyncCheckpoint
		default:
			fmt.Fprintf(os.Stderr, "seve-server: unknown fsync policy %q\n", *fsync)
			os.Exit(2)
		}
		switch *degrade {
		case "block":
			opts.Degrade = durable.DegradeBlock
		case "shed":
			opts.Degrade = durable.DegradeShed
		default:
			fmt.Fprintf(os.Stderr, "seve-server: unknown degrade policy %q\n", *degrade)
			os.Exit(2)
		}
		if *verbose {
			opts.Logf = log.Printf
		}
		// Boot-time recovery: rebuild the durable point from the journal
		// (the generated world seeds a virgin store), rewind the engine
		// to it, then journal on. Crash-restart = resume.
		store, recovery, err := durable.Open(*data, init, opts)
		if err != nil {
			log.Fatalf("seve-server: opening journal %s: %v", *data, err)
		}
		defer store.Close()
		scfg.Durable = store
		scfg.Recovery = recovery
		if up := recovery.Restore.UpTo; up > 0 {
			log.Printf("seve-server: recovered %d objects through action %d (%d sessions, boot %d) from %s",
				recovery.State.Len(), up, len(recovery.Restore.Sessions), recovery.Restore.Boot, *data)
		}
	}
	srv := transport.NewServer(scfg)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("seve-server: %v", err)
	}
	lanes := "single-lane"
	if *shards > 1 {
		lanes = fmt.Sprintf("%d shard lanes", *shards)
	}
	log.Printf("seve-server: %s world %gx%g, %d walls, mode %s (%s), listening on %s",
		mapName(*seed), *size, *size, *walls, cfg.Mode, lanes, l.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		st := srv.Metrics()
		log.Printf("seve-server: shutting down (installed %d actions)\n%s", st.Installed, st)
		if rs := srv.RouterMetrics(); rs.Shards > 1 {
			log.Printf("seve-server: shard router\n%s", rs)
		}
		srv.Close()
		l.Close()
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatalf("seve-server: %v", err)
	}
}

func mapName(seed int64) string {
	return fmt.Sprintf("manhattan-people/%d", seed)
}
