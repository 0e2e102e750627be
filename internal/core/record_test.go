package core

import (
	"testing"

	"seve/internal/action"
	"seve/internal/wire"
	"seve/internal/world"
)

// TestClientRecordLifecycle walks one client id through everything that
// can happen to its record — a submission before any registration, a
// registration, a disconnect, a fresh re-registration, a resume, a
// quarantine — and checks after every step what the record must keep
// (its sent() slot, its drop count, its ledger) and what belongs to one
// registration only (the batch numbering, the place in the live list).
func TestClientRecordLifecycle(t *testing.T) {
	cfg := cfgFor(ModeInfoBound)
	cfg.Threshold = 30
	cfg.MaxSpeed = 10 // Equation (1) reaches across the whole test world
	cfg.ResumeWindow = 4
	cfg.AuditRate = 0
	init := initWorld(6)
	srv := NewServer(cfg, init)
	// Two bystanders, registered out of id order: slots 0 and 1.
	srv.RegisterClient(9, 0)
	srv.RegisterClient(3, 0)
	clients := map[action.ClientID]*Client{
		3: NewClient(3, cfg, init), 5: NewClient(5, cfg, init), 9: NewClient(9, cfg, init),
	}
	const me = action.ClientID(5)
	nowMs := 0.0
	submit := func(cid action.ClientID, a *testAction) ServerOutput {
		a.id = clients[cid].NextActionID()
		m, _ := clients[cid].Submit(a)
		nowMs += 0.1
		return srv.HandleSubmit(cid, m, nowMs)
	}
	own := func() *testAction {
		return &testAction{rs: world.NewIDSet(5), ws: world.NewIDSet(5), delta: 1}
	}

	var rec *clientRec
	var token uint64
	steps := []struct {
		name string
		do   func(t *testing.T)
		// What the record reads after the step.
		registered   bool
		nextBatchSeq uint64
		tracked      int
		dropped      int
		quarantined  bool
	}{
		{name: "first submit before register", do: func(t *testing.T) {
			out := submit(me, own())
			if b := out.Replies[0].Msg.(*wire.Batch); b.ClientSeq != 0 {
				t.Fatalf("unregistered sender's batch was sequenced: ClientSeq %d", b.ClientSeq)
			}
			rec = srv.recs[me]
		}, tracked: 2},
		{name: "register", do: func(t *testing.T) {
			srv.RegisterClient(me, 0)
			token = srv.SessionToken(me)
			submit(me, own())
		}, registered: true, nextBatchSeq: 1, tracked: 3},
		{name: "information bound drop", do: func(t *testing.T) {
			// Client 3's far writer of object 1 is uncommitted; reading it
			// from the origin breaks the chain bound.
			submit(3, spatialAt(&testAction{rs: world.NewIDSet(1), ws: world.NewIDSet(1), delta: 1}, 1000, 0, 1))
			out := submit(me, spatialAt(&testAction{rs: world.NewIDSet(1, 5), ws: world.NewIDSet(5), delta: 1}, 0, 0, 1))
			if !out.Dropped {
				t.Fatal("the far conflict was not dropped")
			}
		}, registered: true, nextBatchSeq: 1, tracked: 3, dropped: 1},
		{name: "tick serves live records in ascending id order", do: func(t *testing.T) {
			submit(9, &testAction{rs: world.NewIDSet(6), ws: world.NewIDSet(6), delta: 1})
			out := srv.Tick(nowMs)
			var to []action.ClientID
			for _, r := range out.Replies {
				to = append(to, r.To)
			}
			if len(to) != 3 || to[0] != 3 || to[1] != 5 || to[2] != 9 {
				t.Fatalf("push order %v, want [3 5 9]", to)
			}
		}, registered: true, nextBatchSeq: 2, tracked: 3, dropped: 1},
		{name: "unregister", do: func(t *testing.T) {
			srv.UnregisterClient(me)
			if out := srv.Tick(nowMs + 1); len(out.Replies) != 0 {
				t.Fatalf("tick with nothing new in the window pushed %d batches", len(out.Replies))
			}
		}, nextBatchSeq: 2, tracked: 2, dropped: 1},
		{name: "re-register is a fresh join", do: func(t *testing.T) {
			srv.RegisterClient(me, 0)
			if got := srv.SessionToken(me); got != token {
				t.Fatalf("token changed across re-registration: %x → %x", token, got)
			}
			if rec.nextBatchSeq != 0 {
				t.Fatalf("nextBatchSeq = %d after re-registration, want 0", rec.nextBatchSeq)
			}
			submit(me, own())
		}, registered: true, nextBatchSeq: 1, tracked: 3, dropped: 1},
		{name: "resume continues the numbering", do: func(t *testing.T) {
			srv.UnregisterClient(me)
			cid, _ := srv.HandleResume(&wire.Resume{Token: token, LastBatchSeq: 1}, nowMs)
			if cid != me {
				t.Fatalf("resume resolved to client %d", cid)
			}
			if rec.nextBatchSeq != 1 {
				t.Fatalf("nextBatchSeq = %d after resume, want it continued at 1", rec.nextBatchSeq)
			}
			submit(me, own())
		}, registered: true, nextBatchSeq: 2, tracked: 3, dropped: 1},
		{name: "quarantine outlives the registration", do: func(t *testing.T) {
			// A write outside the declared write set of its own newest stamp.
			srv.HandleCompletion(me, &wire.Completion{Seq: srv.nextSeq, By: me, Res: action.Result{OK: true,
				Writes: []world.Write{{ID: 4, Val: world.Value{666}}}}})
			srv.UnregisterClient(me)
			srv.RegisterClient(me, 0)
			before := srv.Metrics().QuarantineRejected
			if out := submit(me, own()); len(out.Replies) != 0 {
				t.Fatalf("quarantined client's submission was answered: %+v", out)
			}
			if got := srv.Metrics().QuarantineRejected; got != before+1 {
				t.Fatalf("QuarantineRejected = %d, want %d", got, before+1)
			}
		}, registered: true, tracked: 3, dropped: 1, quarantined: true},
	}
	for _, st := range steps {
		st.do(t)
		if srv.recs[me] != rec {
			t.Fatalf("%s: the record was replaced", st.name)
		}
		if rec.slot != 2 {
			t.Fatalf("%s: slot = %d, want the 2 it took at its first submission", st.name, rec.slot)
		}
		if rec.registered != st.registered || rec.nextBatchSeq != st.nextBatchSeq {
			t.Fatalf("%s: registered=%v nextBatchSeq=%d, want %v/%d",
				st.name, rec.registered, rec.nextBatchSeq, st.registered, st.nextBatchSeq)
		}
		if got := srv.Metrics().TrackedClients; got != st.tracked {
			t.Fatalf("%s: TrackedClients = %d, want %d (live records only)", st.name, got, st.tracked)
		}
		if rec.dropped != st.dropped || srv.DroppedByClient()[me] != st.dropped {
			t.Fatalf("%s: drop count %d (reported %d), want %d",
				st.name, rec.dropped, srv.DroppedByClient()[me], st.dropped)
		}
		if srv.Quarantined(me) != st.quarantined {
			t.Fatalf("%s: quarantined = %v", st.name, srv.Quarantined(me))
		}
	}
	if srv.nextSlot != 3 {
		t.Fatalf("nextSlot = %d: a slot was minted beyond the three clients ever seen", srv.nextSlot)
	}
}
