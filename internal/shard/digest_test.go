package shard

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
	"seve/internal/world"
)

// pinRun is one pinned configuration after its workload drained.
type pinRun struct {
	eng core.Engine
	lb  *loopback
	rng *rand.Rand
	// nGroups and crossFrac parameterise the script generator.
	nGroups   int
	crossFrac float64
}

// newPinRun builds the engine for cfg — the router when cfg.Shards > 1,
// the single lane otherwise — with nClients registered.
func newPinRun(t *testing.T, cfg core.Config, nClients, nGroups int, crossFrac float64, seed int64) *pinRun {
	t.Helper()
	init := genWorld(nGroups)
	var eng core.Engine
	if cfg.Shards > 1 {
		r := New(cfg, init)
		t.Cleanup(r.Close)
		eng = r
	} else {
		eng = core.NewServer(cfg, init)
	}
	return &pinRun{
		eng: eng, lb: newLoopback(t, eng, cfg, init, nClients),
		rng: rand.New(rand.NewSource(seed)), nGroups: nGroups, crossFrac: crossFrac,
	}
}

// script appends acts generated actions to every listed client's script.
func (p *pinRun) script(acts int, cids ...action.ClientID) {
	for _, cid := range cids {
		for k := 0; k < acts; k++ {
			p.lb.script[cid] = append(p.lb.script[cid], genAction(p.rng, cid, p.nGroups, p.crossFrac))
		}
	}
}

// drive pumps the loopback to quiescence (with ticks in the push modes).
func (p *pinRun) drive(cfg core.Config) {
	p.lb.drive(p.rng, cfg.Mode >= core.ModeFirstBound)
}

// serverDrain delivers everything queued for the server and closes the
// epoch, without letting any client read its replies.
func (p *pinRun) serverDrain() {
	for p.lb.stepServer() {
	}
	p.lb.flush()
}

// digest hashes the installed history and every client's reply stream.
func (p *pinRun) digest(t *testing.T) string {
	t.Helper()
	p.lb.requireNoViolations()
	h := sha256.New()
	h.Write(historyBytes(t, p.eng))
	for _, cid := range p.lb.order {
		h.Write(p.lb.bytes[cid])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func routerStats(eng core.Engine) (partitioned, fallback int) {
	if r, ok := eng.(*Router); ok {
		st := r.RouterMetrics()
		return st.PartitionedEpochs, st.FallbackEpochs
	}
	return 0, 0
}

// pinWorkload is the plain case: every client plays acts actions.
func pinWorkload(t *testing.T, cfg core.Config, acts int, crossFrac float64, seed int64) *pinRun {
	t.Helper()
	p := newPinRun(t, cfg, 12, 6, crossFrac, seed)
	p.script(acts, p.lb.order...)
	p.drive(cfg)
	return p
}

// pinResume loses client 1's connection with three reply batches in
// flight, lets the others play on, and resumes it: by suffix replay when
// cfg.ResumeWindow covers the gap, by snapshot when it does not.
func pinResume(t *testing.T, cfg core.Config, crossFrac float64, seed int64) *pinRun {
	t.Helper()
	p := newPinRun(t, cfg, 12, 6, crossFrac, seed)
	lb := p.lb
	p.script(8, lb.order...)
	p.drive(cfg)

	p.script(3, 1)
	for lb.submitNext(1) {
	}
	p.serverDrain()
	lb.toClient[1] = nil
	lb.eng.UnregisterClient(1)

	p.script(4, lb.order[1:]...)
	p.drive(cfg)

	rs := lb.eng.(core.Resumer)
	lb.nowMs += 0.25
	cid, out := rs.HandleResume(&wire.Resume{
		Token:        rs.SessionToken(1),
		LastBatchSeq: lb.clients[1].LastAppliedBatch(),
	}, lb.nowMs)
	if cid != 1 {
		t.Fatalf("resume resolved to client %d, want 1", cid)
	}
	lb.deliverOut(out)
	p.script(4, 1)
	p.drive(cfg)
	if n := lb.clients[1].QueueLen(); n != 0 {
		t.Fatalf("client 1 still has %d in-flight actions after resume", n)
	}
	return p
}

// pinQuarantine has client 2 stamp two actions, abandon the first and
// forge the completion of the second: the verdict quarantines it, the
// forged position is repaired by audit and the abandoned one is
// self-completed by the server, while the others play on.
func pinQuarantine(t *testing.T, cfg core.Config, seed int64) *pinRun {
	t.Helper()
	p := newPinRun(t, cfg, 8, 4, 0.15, seed)
	lb := p.lb
	p.script(6, lb.order...)
	p.drive(cfg)

	p.script(2, 2)
	for lb.submitNext(2) {
	}
	p.serverDrain()
	var comps []*wire.Completion
	for _, msg := range lb.toClient[2] {
		for _, m := range lb.clients[2].HandleMsg(msg).ToServer {
			if c, ok := m.(*wire.Completion); ok {
				comps = append(comps, c)
			}
		}
	}
	lb.toClient[2] = nil
	if len(comps) != 2 {
		t.Fatalf("client 2 produced %d completions for its two actions", len(comps))
	}
	// Object 999 is in no write set: the validator rejects the report.
	lb.toServer = append(lb.toServer, srvMsg{from: 2, msg: &wire.Completion{
		Seq: comps[1].Seq, By: 2,
		Res: action.Result{OK: true, Writes: []world.Write{{ID: 999, Val: world.Value{666}}}},
	}})
	p.serverDrain()

	others := append([]action.ClientID{lb.order[0]}, lb.order[2:]...)
	p.script(4, others...)
	p.drive(cfg)
	return p
}

// pinCase is one pinned configuration: run plays it, check (optional)
// asserts the run exercised what the case is named for.
type pinCase struct {
	name  string
	run   func(t *testing.T) *pinRun
	check func(t *testing.T, p *pinRun)
}

// pinnedDigests are the SHA-256 prefixes of installed history + every
// client's reply stream, generated at commit 4f37fb6 — before the four
// submit paths became one pipeline and the server's side tables moved
// onto the queue entry and the client record. A change that means to
// alter what the server emits regenerates them: run TestPinnedBytes
// with -v and copy the digests it logs.
var pinnedDigests = map[string]string{
	"single/basic":                 "b90e161fc381d9b7",
	"single/incomplete":            "89dd02cdb7ce9916",
	"single/firstbound":            "249525adc8abac32",
	"single/hybrid":                "db16a3d9daa74f18",
	"single/infobound-drops":       "ca2347ec88fad494",
	"router2/lane-local":           "38fc1b1cf3bc07ca",
	"router2/bridges":              "e6ef59d71961c952",
	"router2/drops":                "4bb62d7ad2ea9aca",
	"router4/lane-local":           "b52a4bb95b25c668",
	"router4/bridges":              "0dc80e7790c7d7be",
	"router4/drops":                "061892021a4cb651",
	"router2/resume-suffix":        "014eec119e919235",
	"single/resume-snapshot-drops": "bee6e7c1aef4f235",
	"router2/quarantine-orphan":    "8c10c4095efa1c86",
}

// TestPinnedBytes holds the engine to the bytes it emitted before the
// pipeline unification, across both engines and every path a submission
// can take: the single lane at each protocol level, the router with only
// lane-local traffic, with bridges live (fallback epochs) and with
// Information Bound drops, both resume strategies, and a quarantine
// whose abandoned position the server completes itself.
func TestPinnedBytes(t *testing.T) {
	drops := func(cfg core.Config) core.Config {
		cfg.Threshold = 40 // groups are 300 apart: cross-group chains break
		return cfg
	}
	basic := shardedCfg(core.ModeBasic, 0)
	hybrid := shardedCfg(core.ModeFirstBound, 0)
	hybrid.HybridRelay = true
	cases := []pinCase{
		{"single/basic", func(t *testing.T) *pinRun { return pinWorkload(t, basic, 20, 0.15, 1) }, nil},
		{"single/incomplete", func(t *testing.T) *pinRun {
			return pinWorkload(t, shardedCfg(core.ModeIncomplete, 0), 20, 0.15, 2)
		}, nil},
		{"single/firstbound", func(t *testing.T) *pinRun {
			return pinWorkload(t, shardedCfg(core.ModeFirstBound, 0), 20, 0.15, 3)
		}, nil},
		{"single/hybrid", func(t *testing.T) *pinRun { return pinWorkload(t, hybrid, 20, 0.15, 4) }, nil},
		{"single/infobound-drops", func(t *testing.T) *pinRun {
			return pinWorkload(t, drops(shardedCfg(core.ModeInfoBound, 0)), 20, 0.35, 5)
		}, wantDrops},
	}
	for _, shards := range []int{2, 4} {
		shards := shards
		cases = append(cases, []pinCase{
			{fmt.Sprintf("router%d/lane-local", shards), func(t *testing.T) *pinRun {
				return pinWorkload(t, shardedCfg(core.ModeIncomplete, shards), 20, 0, 6)
			}, func(t *testing.T, p *pinRun) {
				if part, fall := routerStats(p.eng); part == 0 || fall != 0 {
					t.Fatalf("%d partitioned / %d fallback epochs, want only partitioned", part, fall)
				}
			}},
			{fmt.Sprintf("router%d/bridges", shards), func(t *testing.T) *pinRun {
				return pinWorkload(t, shardedCfg(core.ModeInfoBound, shards), 20, 0.15, 7)
			}, wantBothEpochKinds},
			{fmt.Sprintf("router%d/drops", shards), func(t *testing.T) *pinRun {
				return pinWorkload(t, drops(shardedCfg(core.ModeInfoBound, shards)), 20, 0.35, 8)
			}, func(t *testing.T, p *pinRun) {
				wantDrops(t, p)
				wantBothEpochKinds(t, p)
			}},
		}...)
	}
	suffix := shardedCfg(core.ModeIncomplete, 2)
	suffix.ResumeWindow = 32
	snapshot := drops(shardedCfg(core.ModeInfoBound, 0))
	snapshot.ResumeWindow = 2
	cases = append(cases, []pinCase{
		{"router2/resume-suffix", func(t *testing.T) *pinRun { return pinResume(t, suffix, 0.15, 9) },
			func(t *testing.T, p *pinRun) {
				if m := p.eng.Metrics(); m.ResumesSuffix != 1 || m.ResumesSnapshot != 0 {
					t.Fatalf("suffix=%d snapshot=%d resumes, want 1/0", m.ResumesSuffix, m.ResumesSnapshot)
				}
			}},
		{"single/resume-snapshot-drops", func(t *testing.T) *pinRun { return pinResume(t, snapshot, 0.35, 10) },
			func(t *testing.T, p *pinRun) {
				wantDrops(t, p)
				if m := p.eng.Metrics(); m.ResumesSnapshot != 1 {
					t.Fatalf("snapshot resumes = %d, want 1", m.ResumesSnapshot)
				}
			}},
		{"router2/quarantine-orphan", func(t *testing.T) *pinRun {
			return pinQuarantine(t, shardedCfg(core.ModeIncomplete, 2), 11)
		}, func(t *testing.T, p *pinRun) {
			m := p.eng.Metrics()
			if m.QuarantinedClients != 1 || m.OrphanCompletions == 0 || m.RepairedResults == 0 {
				t.Fatalf("quarantined=%d orphans=%d repaired=%d, want 1/>0/>0",
					m.QuarantinedClients, m.OrphanCompletions, m.RepairedResults)
			}
			if p.eng.Installed() != uint64(len(p.eng.History())) {
				t.Fatalf("installed %d of %d: an abandoned position wedged the queue",
					p.eng.Installed(), len(p.eng.History()))
			}
		}},
	}...)

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := tc.run(t)
			if tc.check != nil {
				tc.check(t, p)
			}
			got := p.digest(t)
			t.Logf("%q: %q,", tc.name, got)
			if want := pinnedDigests[tc.name]; got != want {
				t.Errorf("digest %s, the parent implementation's is %s", got, want)
			}
		})
	}
}

func wantDrops(t *testing.T, p *pinRun) {
	t.Helper()
	if p.eng.Metrics().TotalDropped == 0 {
		t.Fatal("no Information Bound drops; threshold not exercised")
	}
}

func wantBothEpochKinds(t *testing.T, p *pinRun) {
	t.Helper()
	if part, fall := routerStats(p.eng); part == 0 || fall == 0 {
		t.Fatalf("%d partitioned / %d fallback epochs, want both", part, fall)
	}
}
