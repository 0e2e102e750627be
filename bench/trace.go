package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/wire"
)

// op is one layer boundary the driver calls through. The name's prefix
// is the layer; the per-layer metric of an op is "<name>_us".
type op uint8

const (
	opDecodeUp op = iota
	opEncodeDown
	opDecodeDown
	opEncodeUp
	opSubmit
	opCompletion
	opTick
	opSession
	opFlush
	opEnqueue
	opPopAll
	opClientSubmit
	opClientHandle
	opClientJoin
	opJournal
	opGen
	nOps
)

var opNames = [nOps]string{
	"wire.decode_up", "wire.encode_down", "wire.decode_down", "wire.encode_up",
	"core.submit", "core.completion", "core.tick", "core.session",
	"shard.flush", "transport.enqueue", "transport.popall",
	"client.submit", "client.handle", "client.join",
	"durable.journal", "gen.new_move",
}

func (o op) layer() string { return opNames[o][:strings.IndexByte(opNames[o], '.')] }

// span is one call into a layer's public function: start and end in
// nanoseconds since the trace began, the enclosing span (-1 at top
// level) and the action the call served (client<<32 | action seq; 0 for
// calls that serve many, such as Tick and Flush).
type span struct {
	op     op
	parent int32
	start  int64
	end    int64
	act    uint64
}

// tracer records spans in memory on the driver goroutine. A nil tracer
// records nothing, so untraced passes pay one predictable branch per
// call.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
	open  []int32
	// burstEnd is the number of spans the burst phase recorded; the solo
	// phase's follow.
	burstEnd int
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// record switches recording on for the timed phases and off outside.
func (t *tracer) record(on bool) {
	if t != nil {
		t.on = on
	}
}

func (t *tracer) begin(o op, act uint64) {
	if t == nil || !t.on {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{op: o, parent: parent, act: act, start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = int64(time.Since(t.t0))
}

func actKey(id action.ID) uint64 { return uint64(uint32(id.Client))<<32 | uint64(id.Seq) }

// selfTimes sums, per op, each span's duration minus the part its child
// spans cover, and returns the per-span durations of one op for
// percentiles.
func (t *tracer) selfTimes() (self [nOps]time.Duration, calls [nOps]int) {
	own := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		own[i] += d
		if s.parent >= 0 {
			own[s.parent] -= d
		}
	}
	for i, s := range t.spans {
		self[s.op] += time.Duration(own[i])
		calls[s.op]++
	}
	return self, calls
}

func (t *tracer) durations(o op) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.op == o {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// writeSpans dumps the raw spans as CSV (-spans).
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,action")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, opNames[s.op], s.start, s.end, s.parent, s.act)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budget prints the self-time table by layer and op for a traced phase
// that served commits actions in traced seconds of server+client time,
// and returns the share of that time the spans account for.
func (t *tracer) budget(out io.Writer, commits int, traced time.Duration) float64 {
	self, calls := t.selfTimes()
	byLayer := map[string]time.Duration{}
	var layers []string
	var covered time.Duration
	for o := op(0); o < nOps; o++ {
		l := o.layer()
		if _, seen := byLayer[l]; !seen {
			layers = append(layers, l)
		}
		byLayer[l] += self[o]
		if o != opGen {
			covered += self[o]
		}
	}
	sort.Strings(layers)
	fmt.Fprintf(out, "layer budget: self time per commit over %d commits (generator excluded from the total)\n", commits)
	for _, l := range layers {
		fmt.Fprintf(out, "  %-10s %9.3f us  %5.1f %%\n", l, us(byLayer[l])/float64(commits), 100*ratio(float64(byLayer[l]), float64(traced)))
		for o := op(0); o < nOps; o++ {
			if o.layer() == l && calls[o] > 0 {
				fmt.Fprintf(out, "    %-20s %9.3f us  %8d calls\n", opNames[o], us(self[o])/float64(commits), calls[o])
			}
		}
	}
	share := ratio(float64(covered), float64(traced))
	fmt.Fprintf(out, "  spans cover %.1f %% of traced server+client time (%.1f ms)\n", 100*share, float64(traced)/1e6)
	return share
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timedJournal is the decorator handed to SetJournal on a traced pass.
// CommitGroup, SessionOpen and ClientQuarantined arrive on the engine's
// sequential entry points — the driver goroutine — and become child
// spans of the engine call that caused them. BatchRetained may arrive
// from the router's lane workers, which the single-goroutine tracer
// cannot record, so its time is only summed; it stays inside its parent
// span's self time.
type timedJournal struct {
	inner    core.Journal
	tr       *tracer
	retainNs atomic.Int64
}

func (j *timedJournal) CommitGroup(epoch uint64, nextBlind uint32, recs []core.CommitRecord) {
	j.tr.begin(opJournal, 0)
	j.inner.CommitGroup(epoch, nextBlind, recs)
	j.tr.end()
}

func (j *timedJournal) SessionOpen(id action.ClientID, token, mask, seqNo, stampFloor uint64) {
	j.tr.begin(opJournal, 0)
	j.inner.SessionOpen(id, token, mask, seqNo, stampFloor)
	j.tr.end()
}

func (j *timedJournal) BatchRetained(id action.ClientID, b *wire.Batch) {
	// tr.on only changes between rounds, when no lane worker runs.
	if !j.tr.on {
		j.inner.BatchRetained(id, b)
		return
	}
	start := time.Now()
	j.inner.BatchRetained(id, b)
	j.retainNs.Add(int64(time.Since(start)))
}

func (j *timedJournal) ClientQuarantined(id action.ClientID, reason uint8, seq uint64) {
	if q, ok := j.inner.(core.QuarantineJournal); ok {
		j.tr.begin(opJournal, 0)
		q.ClientQuarantined(id, reason, seq)
		j.tr.end()
	}
}
