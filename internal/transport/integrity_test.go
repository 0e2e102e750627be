package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"seve/internal/core"
	"seve/internal/integrity"
	"seve/internal/manhattan"
	"seve/internal/wire"
	"seve/internal/world"
)

// TestIntegrityEquivalence is the honest-path differential over real
// sockets: clients of an honest fleet receive byte-identical streams
// whether the integrity layer is armed but silent (audit rate 0, the
// control) or auditing every single completion. Validation, auditing,
// and repair are server-internal — on honest traffic they change no
// reply bytes. (core's TestIntegrityOffEquivalence adds the layer-off
// reference.)
func TestIntegrityEquivalence(t *testing.T) {
	silent := supConfig()
	silent.AuditRate = 0
	control := runKeepUp(t, silent, false)

	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"silent", 0},     // validator armed, auditor never samples
		{"full-audit", 1}, // every completion re-executed against ζS
	} {
		t.Run(tc.name, func(t *testing.T) {
			on := supConfig()
			on.AuditRate = tc.rate
			subject := runKeepUp(t, on, false)

			for _, id := range subject.ids {
				got, want := subject.streams[id].Bytes(), control.streams[id].Bytes()
				if !bytes.Equal(got, want) {
					t.Fatalf("client %d: integrity stream (%d bytes) diverges from control (%d bytes)",
						id, len(got), len(want))
				}
				if len(got) == 0 {
					t.Fatalf("client %d: empty stream — the trace exercised nothing", id)
				}
			}

			ss := subject.hub.Metrics()
			if ss.ContractBreaches != 0 || ss.ForgedCompletions != 0 ||
				ss.AuditDivergences != 0 || ss.RepairedResults != 0 ||
				ss.QuarantinedClients != 0 || ss.QuarantineRejected != 0 ||
				ss.OrphanCompletions != 0 || ss.RateLimited != 0 ||
				ss.WriteSetViolations != 0 || ss.RadiusViolations != 0 {
				t.Fatalf("integrity machinery fired on honest clients: %+v", ss)
			}
			if tc.rate == 0 && ss.AuditsRun != 0 {
				t.Fatalf("auditor sampled %d completions at rate 0", ss.AuditsRun)
			}
			if tc.rate == 1 && ss.AuditsRun == 0 {
				t.Fatal("auditor never ran at rate 1")
			}
		})
	}
}

// TestQuarantineDisconnectTCP drives the full verdict path over real
// loopback TCP: a cheating client (raw socket, so the test controls
// every frame) forges a completion write outside its declared write
// set, hears the Quarantine verdict, and is hung up on; a resume with
// its still-valid session token is refused with the same verdict; an
// honest client on the same server keeps committing throughout.
func TestQuarantineDisconnectTCP(t *testing.T) {
	w := testWorld()
	init := w.InitialState(0)
	cfg := resumeConfig()

	srv := NewServer(ServerConfig{Core: cfg, Init: init, Logf: t.Logf})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		l.Close()
		<-serveDone
	}()

	// Honest client over the real transport.
	honest, err := Dial(l.Addr().String(), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	committed := make(chan core.Commit, 16)
	honest.OnCommit = func(c core.Commit) { committed <- c }
	honestDone := make(chan error, 1)
	go func() { honestDone <- honest.Run() }()
	avatar := manhattan.AvatarID(int(honest.ID()))
	honestSubmit := func() {
		t.Helper()
		var mv *manhattan.MoveAction
		var merr error
		honest.Engine(func(e *core.Client) {
			mv, merr = w.NewMove(e.NextActionID(), avatar, e.Optimistic())
		})
		if merr != nil {
			t.Fatal(merr)
		}
		if _, err := honest.Submit(mv); err != nil {
			t.Fatal(err)
		}
		select {
		case <-committed:
		case <-time.After(10 * time.Second):
			t.Fatal("honest commit timeout")
		}
	}
	honestSubmit()

	// Cheater: manual Hello/Welcome handshake plus a local engine, so
	// the completion can be tampered with before it hits the wire — the
	// honest-software-hostile-wire threat model (DESIGN.md §16).
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, &wire.Hello{}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	welcome, ok := msg.(*wire.Welcome)
	if !ok {
		t.Fatalf("expected Welcome, got type %d", msg.Type())
	}
	if welcome.Token == 0 {
		t.Fatal("server granted no session token despite ResumeWindow > 0")
	}
	st := world.NewState()
	for _, wr := range welcome.Init {
		st.Set(wr.ID, wr.Val)
	}
	eng := core.NewClient(welcome.You, cfg, st)
	eng.SetBoot(welcome.Boot)

	mv, err := w.NewMove(eng.NextActionID(), manhattan.AvatarID(int(welcome.You)), eng.Optimistic())
	if err != nil {
		t.Fatal(err)
	}
	smsg, _ := eng.Submit(mv)
	if err := wire.WriteFrame(conn, smsg); err != nil {
		t.Fatal(err)
	}

	// Pump the cheater's downlink, forging every outgoing completion,
	// until the verdict arrives.
	var verdict *wire.Quarantine
	forged := 0
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for verdict == nil {
		m, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("cheater read before verdict (%d forged): %v", forged, err)
		}
		if q, ok := m.(*wire.Quarantine); ok {
			verdict = q
			break
		}
		out := eng.HandleMsg(m)
		for _, sm := range out.ToServer {
			if co, ok := sm.(*wire.Completion); ok {
				f := *co
				f.Res = co.Res.Clone()
				f.Res.Writes = append(f.Res.Writes, world.Write{ID: 999999, Val: world.Value{1e9}})
				sm = &f
				forged++
			}
			if err := wire.WriteFrame(conn, sm); err != nil {
				t.Fatalf("cheater write: %v", err)
			}
		}
	}
	if verdict.Reason != uint8(integrity.ViolationFootprint) {
		t.Fatalf("verdict reason = %d, want footprint (%d)", verdict.Reason, integrity.ViolationFootprint)
	}
	if forged == 0 {
		t.Fatal("verdict arrived before any completion was forged")
	}

	// Verdict delivered, queue drained: the server hangs up.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("server kept the quarantined connection open after the verdict")
	}
	conn.Close()

	// A resume with the still-valid token is refused with the verdict,
	// not a CatchUp, and the connection is dropped.
	conn2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteFrame(conn2, &wire.Resume{Token: welcome.Token}); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.ReadFrame(conn2)
	if err != nil {
		t.Fatalf("resume verdict read: %v", err)
	}
	q, ok := m.(*wire.Quarantine)
	if !ok {
		t.Fatalf("resume answered with type %d, want Quarantine", m.Type())
	}
	if q.Reason != uint8(integrity.ViolationQuarantined) {
		t.Fatalf("resume verdict reason = %d, want quarantined (%d)", q.Reason, integrity.ViolationQuarantined)
	}
	if _, err := wire.ReadFrame(conn2); err == nil {
		t.Fatal("server kept the rejected resume connection open")
	}

	// The honest client never felt any of it.
	honestSubmit()
	honest.Close()
	if err := <-honestDone; err != nil {
		t.Fatalf("honest Run: %v", err)
	}

	ss := srv.Metrics()
	if ss.ForgedCompletions == 0 {
		t.Fatalf("validator never counted the forgery: %+v", ss)
	}
	if ss.QuarantinedClients != 1 {
		t.Fatalf("QuarantinedClients = %d, want 1", ss.QuarantinedClients)
	}
	if ss.ResumesRejected == 0 || ss.QuarantineRejected == 0 {
		t.Fatalf("quarantined resume not rejected: resumes=%d quarantine=%d",
			ss.ResumesRejected, ss.QuarantineRejected)
	}
}
