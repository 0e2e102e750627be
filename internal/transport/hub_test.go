package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"seve/internal/core"
	"seve/internal/durable"
	"seve/internal/manhattan"
	"seve/internal/wire"
	"seve/internal/world"
)

// latchedJournal is a journal whose I/O error has latched under a
// degrade policy. A real store cannot be made to fail here: a read-only
// directory does not stop a process running as root.
type latchedJournal struct{ policy durable.DegradePolicy }

func (j latchedJournal) Degrade() durable.DegradePolicy { return j.policy }
func (latchedJournal) Err() error                       { return errors.New("disk gone") }

// TestJournalFailureSilencesHub: once a DegradeBlock journal has failed,
// the hub enqueues no reply of any kind and logs the transition once;
// under DegradeShed it keeps serving.
func TestJournalFailureSilencesHub(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy durable.DegradePolicy
		silent bool
	}{{"block", durable.DegradeBlock, true}, {"shed", durable.DegradeShed, false}} {
		t.Run(tc.name, func(t *testing.T) {
			var logs []string
			logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
			hub := NewHub(ServerConfig{Core: protocolConfig(), Init: world.NewState(), Logf: logf}, new(sync.Mutex))
			hub.journal = latchedJournal{tc.policy}
			q := hub.NewQueue(sendQueueCap, false)
			defer q.Close()
			id, _ := hub.Join(0, q)

			for round := 0; round < 2; round++ {
				hub.dispatch(core.ServerOutput{Replies: []core.Reply{
					{To: id, Msg: &wire.Batch{}, Deliver: core.Delivery{Class: core.DeliveryBatch}},
					{To: id, Msg: &wire.CatchUp{}, Deliver: core.Delivery{Class: core.DeliveryOrdered}},
					{To: id, Msg: &wire.Quarantine{}, Deliver: core.Delivery{Class: core.DeliveryOrdered}},
				}}, 0)
			}
			withheld := 0
			for _, l := range logs {
				if strings.Contains(l, "withholding acknowledgements") {
					withheld++
				}
			}
			enqueued, _ := hub.Counts()
			if tc.silent {
				if enqueued != 0 || q.Len() != 0 || q.Poisoned() {
					t.Fatalf("silenced hub enqueued %d replies (queue holds %d, poisoned %v)", enqueued, q.Len(), q.Poisoned())
				}
				if withheld != 1 {
					t.Fatalf("the silence was logged %d times, want once: %q", withheld, logs)
				}
				return
			}
			// The first round's Quarantine poisons the queue, which then
			// refuses the second round.
			frames := q.PopAll(nil, 1<<30)
			for _, f := range frames {
				f.Release()
			}
			if enqueued != 6 || len(frames) != 3 || !q.Poisoned() || withheld != 0 {
				t.Fatalf("DegradeShed hub: enqueued %d, delivered %d, poisoned %v, withholding logged %d times; want 6, 3, true, 0",
					enqueued, len(frames), q.Poisoned(), withheld)
			}
		})
	}
}

// TestRefusedResumeDispatchesFlushedEpoch: a sharded engine flushes its
// open epoch before it answers a Resume. When it refuses the resume, the
// flushed replies still reach their clients, and the connection gets the
// refusal verdict itself.
func TestRefusedResumeDispatchesFlushedEpoch(t *testing.T) {
	w := testWorld()
	cfg := supConfig()
	cfg.Shards = 4
	hub := NewHub(ServerConfig{Core: cfg, Init: w.InitialState(0)}, new(sync.Mutex))
	defer hub.engine.(interface{ Close() }).Close()
	q := hub.NewQueue(sendQueueCap, true)
	defer q.Close()
	id, _ := hub.Join(0, q)
	cl := core.NewClient(id, cfg, hub.init)
	mv, err := w.NewMove(cl.NextActionID(), manhattan.AvatarID(int(id)), cl.Optimistic())
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := cl.Submit(mv)
	hub.Handle(id, sub, 0)
	if n := q.Len(); n != 0 {
		t.Fatalf("the router answered a lone submission with %d frames before any flush", n)
	}

	stranger := hub.NewQueue(sendQueueCap, true)
	defer stranger.Close()
	rid, verdict := hub.Resume(&wire.Resume{Token: 0xdead}, stranger, 0)
	if cu, ok := verdict.(*wire.CatchUp); rid != 0 || !ok || cu.OK {
		t.Fatalf("unknown token resumed as client %d with verdict %#v", rid, verdict)
	}
	if stranger.Len() != 0 {
		t.Fatalf("the refused connection's queue holds %d frames", stranger.Len())
	}
	frames := q.PopAll(nil, 1<<30)
	found := false
	for _, f := range frames {
		m, err := wire.ReadFrame(bytes.NewReader(f.Bytes()))
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := m.(*wire.Batch); ok {
			for _, env := range b.Envs {
				found = found || env.Act.ID() == mv.ID()
			}
		}
	}
	if !found {
		t.Fatalf("the flushed epoch's reply to client %d was lost (%d frames delivered)", id, len(frames))
	}
}
