// Trading: the paper's Section I warning, staged.
//
// "In practice, [inconsistency] can easily cause much more serious
// problems, like objects being lost or duplicated during a financial
// transaction."
//
// One seller, one sword, two buyers who both try to buy it in the same
// instant. Under a visibility-filtered architecture the two buyers stand
// far apart, never hear each other's purchase, and BOTH end up owning
// the sword — a duplication exploit. Under SEVE the two trades are
// serialized; the first commits, the second detects the conflict and
// aborts as a no-op, and gold + items are conserved on every replica.
//
// Run with:
//
//	go run ./examples/trading
package main

import (
	"encoding/binary"
	"fmt"

	"seve/internal/action"
	"seve/internal/baseline"
	"seve/internal/core"
	"seve/internal/geom"
	"seve/internal/world"
)

// Objects: each participant is [gold, x, y]; the sword is [ownerID].
const (
	sellerObj world.ObjectID = 1
	buyerAObj world.ObjectID = 2
	buyerBObj world.ObjectID = 3
	swordObj  world.ObjectID = 4
)

const swordPrice = 50

// BuySword atomically pays the seller and takes ownership — if and only
// if the seller still owns the sword.
type BuySword struct {
	id    action.ID
	Buyer world.ObjectID
	At    geom.Vec
}

func (a *BuySword) ID() action.ID     { return a.id }
func (a *BuySword) Kind() action.Kind { return 400 }

func (a *BuySword) ReadSet() world.IDSet {
	return world.NewIDSet(sellerObj, a.Buyer, swordObj)
}
func (a *BuySword) WriteSet() world.IDSet { return a.ReadSet() }

func (a *BuySword) Apply(tx *world.Tx) bool {
	sword, ok1 := tx.Read(swordObj)
	buyer, ok2 := tx.Read(a.Buyer)
	seller, ok3 := tx.Read(sellerObj)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	if world.ObjectID(sword[0]) != sellerObj {
		return false // already sold: abort, no payment
	}
	if buyer[0] < swordPrice {
		return false // cannot afford it
	}
	nb, ns := buyer.Clone(), seller.Clone()
	nb[0] -= swordPrice
	ns[0] += swordPrice
	tx.Write(a.Buyer, nb)
	tx.Write(sellerObj, ns)
	tx.Write(swordObj, world.Value{float64(a.Buyer)})
	return true
}

func (a *BuySword) MarshalBody() []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(a.Buyer))
}

// Influence is the buyer's stall position — what a visibility filter
// would use to decide who needs to hear about the purchase.
func (a *BuySword) Influence() geom.Circle { return geom.Circle{Center: a.At, R: 5} }

// Browse is a harmless spatial action — looking at a market stall — that
// registers the actor's position with the visibility filter.
type Browse struct {
	id   action.ID
	Self world.ObjectID
	At   geom.Vec
}

func (a *Browse) ID() action.ID          { return a.id }
func (a *Browse) Kind() action.Kind      { return 401 }
func (a *Browse) ReadSet() world.IDSet   { return world.NewIDSet(a.Self) }
func (a *Browse) WriteSet() world.IDSet  { return world.NewIDSet(a.Self) }
func (a *Browse) MarshalBody() []byte    { return nil }
func (a *Browse) Influence() geom.Circle { return geom.Circle{Center: a.At, R: 5} }

func (a *Browse) Apply(tx *world.Tx) bool {
	v, ok := tx.Read(a.Self)
	if !ok {
		return false
	}
	tx.Write(a.Self, v.Clone())
	return true
}

func market() *world.State {
	init := world.NewState()
	init.Set(sellerObj, world.Value{0, 250, 250})
	init.Set(buyerAObj, world.Value{100, 0, 0})
	init.Set(buyerBObj, world.Value{100, 500, 500})
	init.Set(swordObj, world.Value{float64(sellerObj)})
	return init
}

// owners reports who owns the sword according to each replica, plus the
// total gold each replica believes exists.
func audit(name string, views map[string]world.Reader) (swordCopies int) {
	fmt.Printf("%s:\n", name)
	ownersSeen := map[world.ObjectID]bool{}
	for who, v := range views {
		sword, _ := v.Get(swordObj)
		owner := world.ObjectID(sword[0])
		gold := 0.0
		for _, id := range []world.ObjectID{sellerObj, buyerAObj, buyerBObj} {
			g, _ := v.Get(id)
			gold += g[0]
		}
		fmt.Printf("  %-8s believes: sword owned by object %d, total gold %.0f\n", who, owner, gold)
		ownersSeen[owner] = true
	}
	return len(ownersSeen)
}

func main() {
	fmt.Println("One sword, two buyers, one instant. Price 50 gold.")
	fmt.Println()

	ringOwners := runRing()
	seveOwners := runSEVE()

	fmt.Println()
	if ringOwners > 1 {
		fmt.Printf("Visibility filter: replicas disagree on the owner — the sword was\n")
		fmt.Printf("effectively DUPLICATED (%d distinct 'owners').\n", ringOwners)
	}
	if seveOwners == 1 {
		fmt.Println("SEVE: exactly one owner everywhere; the losing trade aborted and")
		fmt.Println("paid nothing. Gold and items conserved.")
	}
	if ringOwners <= 1 {
		panic("trading: the naive architecture failed to duplicate the sword")
	}
	if seveOwners != 1 {
		panic("trading: SEVE replicas disagree on ownership")
	}
}

// runRing lets the two distant buyers trade through a visibility filter
// that hides their purchases from each other.
func runRing() int {
	init := market()
	srv := baseline.NewRingServer(50, false)
	cfg := baseline.NewRingClientConfig()
	cfg.Strict = true // an access outside ReadSet/WriteSet is a Violation, and a Violation panics
	buyerA := core.NewClient(1, cfg, init)
	buyerB := core.NewClient(2, cfg, init)
	srv.RegisterClient(1)
	srv.RegisterClient(2)
	clients := map[action.ClientID]*core.Client{1: buyerA, 2: buyerB}

	send := func(c *core.Client, a action.Action) {
		msg, _ := c.Submit(a)
		out := srv.HandleSubmit(c.ID(), msg)
		for _, rep := range out.Replies {
			if cout := clients[rep.To].HandleMsg(rep.Msg); len(cout.Violations) > 0 {
				panic(fmt.Sprintf("trading: %v", cout.Violations))
			}
		}
	}
	// Register the buyers' distant stall positions first (a client with
	// an unknown position is conservatively treated as visible).
	send(buyerA, &Browse{id: buyerA.NextActionID(), Self: buyerAObj, At: geom.Vec{X: 0, Y: 0}})
	send(buyerB, &Browse{id: buyerB.NextActionID(), Self: buyerBObj, At: geom.Vec{X: 500, Y: 500}})

	// Now the race: each purchase is 700 units from the other buyer, so
	// the filter hides it — and both replicas hand over the sword.
	send(buyerA, &BuySword{id: buyerA.NextActionID(), Buyer: buyerAObj, At: geom.Vec{X: 0, Y: 0}})
	send(buyerB, &BuySword{id: buyerB.NextActionID(), Buyer: buyerBObj, At: geom.Vec{X: 500, Y: 500}})

	return audit("Visibility-filtered replicas", map[string]world.Reader{
		"buyer A": buyerA.Stable(),
		"buyer B": buyerB.Stable(),
	})
}

// runSEVE serializes the same race through the Incomplete World Model.
func runSEVE() int {
	init := market()
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeIncomplete
	cfg.Strict = true // an access outside ReadSet/WriteSet is a Violation, and a Violation panics
	srv := core.NewServer(cfg, init)
	buyerA := core.NewClient(1, cfg, init)
	buyerB := core.NewClient(2, cfg, init)
	srv.RegisterClient(1, 0)
	srv.RegisterClient(2, 0)
	clients := map[action.ClientID]*core.Client{1: buyerA, 2: buyerB}

	// Both submit before the server sees either: a true race.
	mA, _ := buyerA.Submit(&BuySword{id: buyerA.NextActionID(), Buyer: buyerAObj, At: geom.Vec{X: 0, Y: 0}})
	mB, _ := buyerB.Submit(&BuySword{id: buyerB.NextActionID(), Buyer: buyerBObj, At: geom.Vec{X: 500, Y: 500}})

	var replies []core.Reply
	out := srv.HandleMsg(1, mA, 0)
	replies = append(replies, out.Replies...)
	out = srv.HandleMsg(2, mB, 0)
	replies = append(replies, out.Replies...)
	for _, rep := range replies {
		cout := clients[rep.To].HandleMsg(rep.Msg)
		if len(cout.Violations) > 0 {
			panic(fmt.Sprintf("trading: %v", cout.Violations))
		}
		for _, m := range cout.ToServer {
			srv.HandleMsg(rep.To, m, 0)
		}
		for _, cm := range cout.Commits {
			status := "committed"
			if !cm.Res.OK {
				status = "aborted (sword already sold)"
			}
			fmt.Printf("  SEVE: buyer %d's trade %s\n", rep.To, status)
		}
	}
	return audit("SEVE replicas", map[string]world.Reader{
		"buyer A": buyerA.Stable(),
		"buyer B": buyerB.Stable(),
		"server":  srv.Authoritative(),
	})
}
