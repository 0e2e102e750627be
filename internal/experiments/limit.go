package experiments

import (
	"fmt"
	"time"

	"seve/internal/action"
	"seve/internal/core"
	"seve/internal/manhattan"
	"seve/internal/metrics"
	"seve/internal/wire"
	"seve/internal/world"
)

// Limit regenerates the single-server capacity claim of Section V-B1:
// "We performed experiments on a single server and determined the limit
// of our implementation to be about 3500 clients."
//
// Unlike the figure experiments this one measures the real
// implementation, not the simulator: it drives this package's actual
// core.Server with synthetic move rounds — every client submits one move
// per 300 ms round, completions arrive one round late so the uncommitted
// queue carries a full round of in-flight actions, and a First Bound
// push cycle runs each round — and reports the wall-clock CPU the server
// burns per round. The implementation's client limit is where that cost
// reaches the 300 ms round budget.
func Limit(opt Options) (*metrics.Table, error) {
	counts := pick(opt, []int{250, 500, 1000, 2000, 3500, 5000, 8000}, []int{250, 1000})
	rounds := pick(opt, 8, 3)

	t := &metrics.Table{
		Title:  "Single-Server Limit: real server CPU per 300 ms move round (budget: 300 ms)",
		Header: []string{"clients", "server-ms/round", "headroom-x"},
	}
	for _, n := range counts {
		ms, err := measureServerRound(n, rounds)
		if err != nil {
			return nil, fmt.Errorf("limit %d clients: %w", n, err)
		}
		headroom := 300 / ms
		t.AddRow(fmt.Sprintf("%d", n), metrics.Ms(ms), fmt.Sprintf("%.1f", headroom))
		opt.log("limit clients=%d serverMs/round=%.2f headroom=%.1fx", n, ms, headroom)
	}
	return t, nil
}

// measureServerRound runs the synthetic rounds and returns the mean real
// milliseconds of server compute per round.
func measureServerRound(clients, rounds int) (float64, error) {
	wcfg := manhattan.DefaultConfig()
	wcfg.Width, wcfg.Height = 10_000, 10_000 // MMO-scale sparsity
	wcfg.NumWalls = 5_000
	wcfg.NumAvatars = clients
	w := manhattan.NewWorld(wcfg)
	init := w.InitialState(0)

	cfg := core.DefaultConfig()
	cfg.MaxSpeed = wcfg.Speed
	cfg.DefaultRadius = wcfg.EffectRange
	cfg.Threshold = 1.5 * wcfg.Visibility
	srv := core.NewServer(cfg, init)
	for i := 1; i <= clients; i++ {
		srv.RegisterClient(action.ClientID(i), 0)
	}

	// mirror approximates each client's view (all clients share it here;
	// only the server is under test).
	mirror := init.Clone()
	nextSeq := make([]uint32, clients+1)

	var serverTime time.Duration
	var pendingCompletions []*wire.Completion
	nowMs := 0.0

	for round := 0; round < rounds; round++ {
		// Completions from the previous round arrive first.
		start := time.Now()
		for _, c := range pendingCompletions {
			srv.HandleCompletion(c.By, c)
		}
		serverTime += time.Since(start)
		pendingCompletions = pendingCompletions[:0]

		for i := 1; i <= clients; i++ {
			cid := action.ClientID(i)
			nextSeq[i]++
			mv, err := w.NewMove(action.ID{Client: cid, Seq: nextSeq[i]}, manhattan.AvatarID(i), mirror)
			if err != nil {
				return 0, err
			}
			sub := &wire.Submit{Env: action.Envelope{Origin: cid, Act: mv}}

			start := time.Now()
			out := srv.HandleSubmit(cid, sub, nowMs)
			serverTime += time.Since(start)

			if out.Dropped {
				continue
			}
			// Emulate the origin client instantly: find the stamped seq
			// from the reply batch, evaluate against the mirror, and
			// queue the completion for next round.
			seq, res := evalReplyTail(out, mv, mirror)
			if seq != 0 {
				pendingCompletions = append(pendingCompletions, &wire.Completion{Seq: seq, By: cid, Res: res})
			}
		}

		// One First Bound push cycle per round.
		nowMs += 300
		start = time.Now()
		srv.Tick(nowMs)
		serverTime += time.Since(start)
	}
	return serverTime.Seconds() * 1000 / float64(rounds), nil
}

// evalReplyTail extracts the submitted move's stamped position from the
// reply, evaluates it against the shared mirror and applies its writes.
func evalReplyTail(out core.ServerOutput, mv action.Action, mirror *world.State) (uint64, action.Result) {
	for _, rep := range out.Replies {
		batch, ok := rep.Msg.(*wire.Batch)
		if !ok {
			continue
		}
		for _, env := range batch.Envs {
			if env.Act.ID() == mv.ID() {
				res := action.Eval(mv, world.StateView{S: mirror})
				for _, wr := range res.Writes {
					mirror.Set(wr.ID, wr.Val)
				}
				return env.Seq, res
			}
		}
	}
	return 0, action.Result{}
}
