package netsim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/oracletest"
	"seve/internal/sim"
	"seve/internal/transport"
)

// The durable churn swarm: the fault-injection harness of churn_test.go
// with the durability pipeline attached and the server itself as the
// churn victim. Phase one runs client churn while the engine journals
// to a store; the process then dies mid-epoch — the store directory is
// imaged as-is, with no shutdown checkpoint, while stamped-but-
// uninstalled actions are still in flight — and a second server boots
// over the recovery. The serial-replay oracle must match the recovered
// state exactly, the original clients must resume over the wire (boot
// fencing discards completions minted for rolled-back positions), a
// stranger must join, and after a second traffic phase the combined
// history must be exactly-once for every client, commits whose
// acknowledgements died with the crash included.

// copyStoreDir byte-copies a live store directory into a fresh tempdir:
// kill -9 then reading the disk (Close would cut a shutdown checkpoint).
func copyStoreDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
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

// TestDurableChurnKillRecover is the process-death matrix: shard counts
// × seeds, each killing the server mid-epoch and resuming the same
// clients against the recovered engine.
func TestDurableChurnKillRecover(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("shards=%d/seed=%d", shards, seed)
			t.Run(name, func(t *testing.T) {
				runKillRecover(t, shards, seed)
			})
		}
	}
}

func runKillRecover(t *testing.T, shards int, seed int64) {
	const nClients, nObjects = 5, 12
	init := churnInit(nObjects)
	dopts := durable.Options{SnapshotEvery: 4, QueueLen: 256}

	dir := t.TempDir()
	store, rec, err := durable.Open(dir, init, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Restore.UpTo != 0 || rec.Restore.Boot != 1 {
		t.Fatalf("virgin store recovered upTo=%d boot=%d, want 0/1", rec.Restore.UpTo, rec.Restore.Boot)
	}

	h := newChurnHarness(t, churnConfig(shards), nClients, nObjects, store)
	rng := rand.New(rand.NewSource(seed))
	k := h.k

	// Phase 1: flush ticks, random submissions, client churn on 3..N.
	for ms := sim.Time(1); ms < 360; ms += 10 {
		k.At(ms, h.flush)
	}
	for step := 0; step < 25; step++ {
		at := sim.Time(step*10 + 5)
		k.At(at, func() {
			cl := h.clients[h.order[rng.Intn(len(h.order))]]
			if cl.connected || rng.Float64() < 0.3 {
				h.submit(cl, rng, 1, nObjects)
			}
			if rng.Float64() < 0.2 {
				victim := h.clients[h.order[2+rng.Intn(len(h.order)-2)]]
				if victim.connected {
					h.disconnect(victim)
					back := at + sim.Time(30+rng.Intn(5)*10)
					k.At(back, func() { h.reconnect(victim) })
				}
			}
		})
	}
	k.At(330, func() {
		for _, cid := range h.order {
			h.reconnect(h.clients[cid])
		}
	})
	// The mid-epoch burst: submitted after the final flush tick, these
	// actions are stamped but never installed — the crash takes the
	// epoch down with them, and their serial positions are re-issued
	// after recovery.
	k.At(365, func() {
		for i := 0; i < 3; i++ {
			cl := h.clients[h.order[rng.Intn(len(h.order))]]
			if cl.connected {
				h.submit(cl, rng, 1, nObjects)
			}
		}
	})
	k.Run()

	installed1 := h.hub.Metrics().Installed
	if installed1 == 0 {
		t.Fatal("phase 1 installed nothing")
	}
	requirePruned(t, h)
	hist1 := history(h)
	if uint64(len(hist1)) < installed1 {
		t.Fatalf("history %d shorter than installed %d", len(hist1), installed1)
	}
	for i, env := range hist1 {
		if env.Seq != uint64(i+1) {
			t.Fatalf("phase 1 history gap at %d: seq %d", i, env.Seq)
		}
	}

	// Kill. Sync flushes the committer queue so the image is the exact
	// journal of the installed prefix; the copy — not Close — is the
	// crash: no shutdown checkpoint, the newest image stays stale and
	// recovery must replay the wal tail.
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	img := copyStoreDir(t, dir)
	store.Close()

	store2, rec2, err := durable.Open(img, init, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	up := rec2.Restore.UpTo
	if up != installed1 {
		t.Fatalf("recovered upTo %d, engine had installed %d", up, installed1)
	}
	if rec2.Restore.Boot != 2 {
		t.Fatalf("recovered boot %d, want 2", rec2.Restore.Boot)
	}

	// Recovery oracle: the recovered state is the serial replay of the
	// installed prefix, byte for byte.
	if !rec2.State.Equal(oracletest.Replay(init, hist1[:up]).Final()) {
		t.Fatal("recovered state diverged from serial replay oracle")
	}
	h.hub.Engine(func(eng core.Engine) {
		if !rec2.State.Equal(eng.Authoritative()) {
			t.Fatal("recovered state diverged from the dead engine's ζS")
		}
	})

	// Restart: the server boots over the recovery, journaling to the
	// reopened store, as the TCP server does. The server's death severed
	// every connection — uplink generations burn, downlink frames die on
	// the removed nodes.
	for _, cid := range h.order {
		h.cut(h.clients[cid])
		h.clients[cid].q = nil
	}
	h.hub = transport.NewHub(transport.ServerConfig{Core: h.cfg, Init: init, Durable: store2, Recovery: rec2}, new(sync.Mutex))

	// Phase 2: everyone resumes over the wire against the restarted
	// server, then a second round of traffic drains.
	base := k.Now()
	for ms := base + 1; ms < base+300; ms += 10 {
		k.At(ms, h.flush)
	}
	for i, cid := range h.order {
		k.At(base+sim.Time(5+i*7), func() { h.reconnect(h.clients[cid]) })
	}
	// A stranger joins before any recovered client resumes: it must get
	// a fresh id and the restarted boot, then trade like anyone.
	k.At(base+2, func() {
		cl, w := h.join()
		if cl.id <= nClients || w.Boot != rec2.Restore.Boot {
			t.Fatalf("fresh join after restart got id %d boot %d, want an id above %d and boot %d", cl.id, w.Boot, nClients, rec2.Restore.Boot)
		}
		h.submit(cl, rng, 1, nObjects)
	})
	for step := 0; step < 15; step++ {
		at := base + sim.Time(80+step*10)
		k.At(at, func() {
			cl := h.clients[h.order[rng.Intn(nClients)]]
			if cl.connected {
				h.submit(cl, rng, 1, nObjects)
			}
		})
	}
	k.Run()

	// The restarted engine's history continues from the durable point.
	// Combined oracle: phase 1 up to that point, then everything the
	// restarted engine installed.
	hist2 := drained(t, h, up)
	installed2 := up + uint64(len(hist2))
	oracle := oracletest.Replay(init, hist1[:up], hist2)
	requireSerial(t, h, oracle)

	// Per-client exactly-once across the crash: every submission
	// committed once with the oracle's result — those whose acks died
	// with the server re-delivered through the resume path — and every
	// stable version is serial-replay consistent against the combined
	// history. The stranger's replica starts from the Welcome's
	// recovered world, so its oracle starts there too.
	verifyClients(t, h, oracle, h.order[:nClients])
	verifyClients(t, h, oracletest.Replay(rec2.State, hist2), h.order[nClients:])

	// The restart must actually have gone through the recovered-session
	// path, every resume after it must be a snapshot (the journal holds
	// no replies to replay), and no valid token may have been rejected.
	m := h.hub.Metrics()
	if m.ResumesRecovered == 0 {
		t.Errorf("no recovered-session resume despite the restart: %+v", m)
	}
	if m.ResumesSuffix != 0 {
		t.Errorf("%d suffix resumes against the restarted server, want every one a snapshot", m.ResumesSuffix)
	}
	if m.ResumesRejected != 0 {
		t.Errorf("%d resumes rejected after restart with valid tokens", m.ResumesRejected)
	}

	// The journal kept pace through phase 2 as well: after a barrier the
	// durable point is the restarted engine's install point, gap-free.
	if err := store2.Sync(); err != nil {
		t.Fatal(err)
	}
	st2 := store2.Stats()
	if st2.Durable != installed2 {
		t.Fatalf("journal durable at %d, restarted engine installed %d", st2.Durable, installed2)
	}
	if st2.Gapped {
		t.Fatal("journal gapped under DegradeBlock")
	}
}

// TestJournalRepliesIdentical: durability must be invisible on the
// wire. The same churn schedule runs twice — once plain, once with the
// journal attached — and every history entry and every per-client
// reply stream must match byte for byte.
func TestJournalRepliesIdentical(t *testing.T) {
	const shards, seed, nObjects = 4, 3, 12
	plain := runChurn(t, shards, seed)

	store, _, err := durable.Open(t.TempDir(), churnInit(nObjects), durable.Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	logged := newChurnHarness(t, churnConfig(shards), 5, nObjects, store)
	playChurn(logged, seed, nObjects)

	sameRun(t, "plain vs journaled", plain, logged)

	// And the journal saw everything the engine installed.
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if st, n := store.Stats(), logged.hub.Metrics().Installed; st.Durable != n {
		t.Fatalf("journal durable at %d, engine installed %d", st.Durable, n)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}
