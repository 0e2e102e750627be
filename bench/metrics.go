package main

import (
	"encoding/json"
	"fmt"
)

// refSeconds is BENCHMARK.json's run_seconds. Every workload's op counts
// are sized so that a run's passes measure about this long on the host
// the benchmark was defined on; -seconds scales them linearly.
const refSeconds = 15

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees, the same set on every
// workload. README.md holds the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"server_commits_per_s", "1/s", "higher", 0.25},
	{"client_us_per_commit", "us", "lower", 0.25},
	{"commit_path_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_commit", "us", "lower", 0.25},
	{"allocs_per_commit", "count", "lower", 0.08},
	{"alloc_kb_per_commit", "KiB", "lower", 0.10},
	{"down_bytes_per_commit", "B", "lower", 0.15},
	{"up_bytes_per_commit", "B", "lower", 0.05},
	{"server_heap_mb", "MiB", "lower", 0.15},
	{"commit_share", "share", "higher", 0.005},
}

// perLayer is read from one traced pass. A *_us metric is the layer
// operation's self time divided by the burst phase's commits, so the
// column adds up to the budget of one action.
var perLayer = []metricDef{
	{Name: "wire.decode_up_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_down_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "wire.decode_down_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_up_us", Unit: "us", Better: "lower"},
	{Name: "wire.down_frames_per_commit", Unit: "count", Better: "lower"},

	{Name: "core.submit_us", Unit: "us", Better: "lower"},
	{Name: "core.completion_us", Unit: "us", Better: "lower"},
	{Name: "core.session_us", Unit: "us", Better: "lower"},
	{Name: "core.queue_scans_per_commit", Unit: "count", Better: "lower"},
	{Name: "core.scan_saved_share", Unit: "share", Better: "higher"},
	{Name: "core.queue_len_max", Unit: "count", Better: "lower"},
	{Name: "core.drop_share", Unit: "share", Better: "lower"},
	{Name: "core.tick_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.tick_share", Unit: "share", Better: "lower"},
	{Name: "core.push_envs_per_tick", Unit: "count", Better: "lower"},
	{Name: "core.push_replies_per_tick", Unit: "count", Better: "lower"},
	{Name: "core.tracked_clients", Unit: "count", Better: "lower"},
	{Name: "core.interned_objects", Unit: "count", Better: "lower"},
	{Name: "core.retained_batches", Unit: "count", Better: "lower"},

	{Name: "client.submit_us", Unit: "us", Better: "lower"},
	{Name: "client.handle_us", Unit: "us", Better: "lower"},
	{Name: "client.join_us", Unit: "us", Better: "lower"},
	{Name: "client.reconcile_share", Unit: "share", Better: "lower"},
	{Name: "client.applied_remote_per_commit", Unit: "count", Better: "lower"},
	{Name: "client.applied_blind_per_commit", Unit: "count", Better: "lower"},
	{Name: "client.path_p99_us", Unit: "us", Better: "lower"},

	{Name: "integrity.audits_per_commit", Unit: "count", Better: "lower"},
	{Name: "integrity.violations", Unit: "count", Better: "lower"},

	{Name: "shard.flush_us", Unit: "us", Better: "lower"},
	{Name: "shard.stamp_us", Unit: "us", Better: "lower"},
	{Name: "shard.plan_us", Unit: "us", Better: "lower"},
	{Name: "shard.plan_crit_us", Unit: "us", Better: "lower"},
	{Name: "shard.commit_us", Unit: "us", Better: "lower"},
	{Name: "shard.merge_us", Unit: "us", Better: "lower"},
	{Name: "shard.install_us", Unit: "us", Better: "lower"},
	{Name: "shard.partitioned_share", Unit: "share", Better: "higher"},
	{Name: "shard.spanning_share", Unit: "share", Better: "lower"},
	{Name: "shard.lane_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "shard.actions_per_epoch", Unit: "count", Better: "higher"},
	{Name: "shard.achievable_x", Unit: "ratio", Better: "higher"},

	{Name: "transport.enqueue_us", Unit: "us", Better: "lower"},
	{Name: "transport.popall_us", Unit: "us", Better: "lower"},
	{Name: "transport.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "transport.frames_coalesced", Unit: "count", Better: "lower"},
	{Name: "transport.frames_superseded", Unit: "count", Better: "lower"},
	{Name: "transport.drops", Unit: "count", Better: "lower"},
	{Name: "transport.sock_commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.sock_commits_per_s", Unit: "1/s", Better: "higher"},

	{Name: "durable.journal_us", Unit: "us", Better: "lower"},
	{Name: "durable.bytes_per_commit", Unit: "B", Better: "lower"},
	{Name: "durable.records_per_group", Unit: "count", Better: "higher"},
	{Name: "durable.group_commits", Unit: "count", Better: "lower"},
	{Name: "durable.lag_end", Unit: "count", Better: "lower"},
	{Name: "durable.sync_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.shed_records", Unit: "count", Better: "lower"},
	{Name: "durable.recover_ms", Unit: "ms", Better: "lower"},

	{Name: "gen.share", Unit: "share", Better: "lower"},
	{Name: "driver.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
}

// manifest renders BENCHMARK.json from the tables above, so the file
// the driver reads and the names the benchmark prints cannot drift
// (TestManifestMatchesCheckedIn holds the checked-in copy to it).
func manifest() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: refSeconds,
	}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workloadJSON{sp.name, sp.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is made of strings and numbers only
	}
	return append(b, '\n')
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick builds the result's metric object from defs, failing on a value
// the run did not produce so a renamed metric cannot silently vanish.
func pick(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
