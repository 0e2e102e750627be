// Corpus for the detorder checker. Lines with a `// want` comment must
// be flagged with a message matching the regexp; everything else must
// stay clean.
package dettest

import (
	"sort"

	"seve/internal/core"
	"seve/internal/wire"
)

type outbox struct {
	Seq  uint64
	Envs []int
}

// encodeUnordered serializes straight out of map iteration — the byte
// stream differs run to run.
func encodeUnordered(m map[int]wire.Msg, buf []byte) []byte {
	for _, msg := range m { // want `map iteration order feeds wire encoding \(AppendFrame\)`
		buf = wire.AppendFrame(buf, msg)
	}
	return buf
}

// stampUnordered assigns serial order in map order.
func stampUnordered(m map[int]*outbox, next uint64) {
	for _, o := range m { // want `serial order assignment \(Seq\)`
		o.Seq = next
		next++
	}
}

// emitUnordered appends to an output stream in map order.
func emitUnordered(m map[int]int, o *outbox) {
	for k := range m { // want `output emission \(Envs\)`
		o.Envs = append(o.Envs, k)
	}
}

// lane models a shard lane's epoch buffer, as in the shard router's
// merge step.
type lane struct {
	Seq  uint64
	Envs []int
}

// mergeLanesUnordered merges per-lane epoch buffers keyed by lane id in
// map order: the global serial order then depends on map iteration.
func mergeLanesUnordered(lanes map[int]*lane, next uint64) uint64 {
	for _, l := range lanes { // want `serial order assignment \(Seq\)`
		l.Seq = next
		next += uint64(len(l.Envs))
	}
	return next
}

// emitLanesUnordered drains lane buffers into the client-visible stream
// in map order — the byte stream the clients see differs run to run.
func emitLanesUnordered(lanes map[int]*lane, out *outbox) {
	for _, l := range lanes { // want `output emission \(Envs\)`
		out.Envs = append(out.Envs, l.Envs...)
	}
}

// mergeLanesByIndex is the sanctioned shard-merge idiom: lanes live in a
// slice and the merge walks them in ascending lane index, so the global
// order (epoch, lane, localSeq) is deterministic. Clean.
func mergeLanesByIndex(lanes []*lane, out *outbox, next uint64) uint64 {
	for i := 0; i < len(lanes); i++ {
		lanes[i].Seq = next
		next += uint64(len(lanes[i].Envs))
		out.Envs = append(out.Envs, lanes[i].Envs...)
	}
	return next
}

// mergeLanesSortedKeys is the map-keyed variant of the sanctioned idiom:
// collect lane ids, sort, then stamp and emit in sorted order. Clean.
func mergeLanesSortedKeys(lanes map[int]*lane, out *outbox, next uint64) uint64 {
	ids := make([]int, 0, len(lanes))
	for id := range lanes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		l := lanes[id]
		l.Seq = next
		next += uint64(len(l.Envs))
		out.Envs = append(out.Envs, l.Envs...)
	}
	return next
}

// collectThenSort is the sanctioned idiom: the map range only collects,
// the ordered loop does the encoding. Clean.
func collectThenSort(m map[int]wire.Msg, buf []byte) []byte {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		buf = wire.AppendFrame(buf, m[k])
	}
	return buf
}

// countOnly ranges a map for an order-insensitive fold. Clean.
func countOnly(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// sliceEncode ranges a slice, which iterates deterministically. Clean.
func sliceEncode(msgs []wire.Msg, buf []byte) []byte {
	for _, m := range msgs {
		buf = wire.AppendFrame(buf, m)
	}
	return buf
}

// sealUnordered drives the partitioned pipeline's sequential stamp seal
// out of map iteration: global Seqs, counters, and Drop replies land in
// map order instead of the merge order (epoch, lane, localSeq).
func sealUnordered(srv *core.Server, jobs map[int]*core.Pending, out *core.ServerOutput) {
	for _, p := range jobs { // want `epoch merge \(SealStamp\)`
		srv.SealStamp(p, out)
	}
}

// mintUnordered mints blind-write ids in map order — the ids are
// client-visible, so the reply bytes differ run to run.
func mintUnordered(srv *core.Server, jobs map[*core.Pending]*core.ReplyPlan) {
	for p, plan := range jobs { // want `epoch merge \(PreCommit\)`
		srv.PreCommit(p, plan)
	}
}

// emitSealUnordered emits the staged replies in map order.
func emitSealUnordered(srv *core.Server, jobs map[*core.Pending]*core.ReplyPlan, out *core.ServerOutput) {
	for p, plan := range jobs { // want `epoch merge \(SealCommit\)`
		srv.SealCommit(p, plan, out)
	}
}

// submitUnordered runs one-job epochs out of map iteration: each call
// assigns the next serial position, so the total order depends on map
// order.
func submitUnordered(srv *core.Server, jobs map[int]*core.Pending, out *core.ServerOutput) {
	for _, p := range jobs { // want `epoch merge \(SubmitPrepared\)`
		srv.SubmitPrepared(p, out)
	}
}

// sealByJobOrder is the sanctioned idiom: jobs collected lane-major
// into a slice at flush start, every sequential seal pass walking it by
// ascending index — the merge order. Clean.
func sealByJobOrder(srv *core.Server, jobs []*core.Pending, plans []*core.ReplyPlan, out *core.ServerOutput) {
	for i := range jobs {
		if srv.SealStamp(jobs[i], out) {
			srv.PreCommit(jobs[i], plans[i])
			srv.SealCommit(jobs[i], plans[i], out)
		}
	}
}

// laneDispatchUnordered fans lane-affine stamping out of a map: the
// lanes touch disjoint state, so dispatch order is free. Clean.
func laneDispatchUnordered(srv *core.Server, lanes map[int][]*core.Pending) {
	for lane, ps := range lanes {
		srv.StampLane(lane, ps)
	}
}
