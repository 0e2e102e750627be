// Corpus for the laneaffinity checker. Lines with a `// want` comment
// must be flagged with a message matching the regexp; everything else
// must stay clean. The types mirror the engine's queue state: an embedded
// segment is the global queue, a lanes []segment field the per-lane
// segment array the checker guards, each with its conflict-index rows.
package lanetest

type segment struct {
	queue     []int
	installed uint64
	writers   [][]uint64
}

func (g *segment) push(v int) { g.queue = append(g.queue, v) }

type engine struct {
	segment
	lanes []segment
}

type pending struct {
	lane     int
	viewLane int
}

// StampLane is implicitly lane-affine: an int parameter named "lane".
func (e *engine) StampLane(lane int, ps []*pending) {
	ls := &e.lanes[lane]
	ls.queue = append(ls.queue, lane)
}

// CommitLane reaches its own lane through the pending's owner field.
//
//seve:lane-affine
func (e *engine) CommitLane(p *pending) {
	ls := &e.lanes[p.viewLane]
	ls.installed++
	e.indexLane(&e.lanes[p.lane])
}

//seve:lane-affine
func (e *engine) indexLane(ls *segment) {
	rows := ls.writers[0]
	_ = append(rows, ls.installed)
}

// SealInstall runs between phases and may range the whole array, and
// owns the global segment.
//
//seve:lane-seal
func (e *engine) SealInstall() {
	for i := range e.lanes {
		e.lanes[i].queue = nil
	}
	e.installed++
	e.push(1)
	e.CommitLane(&pending{}) // a seal pass may drive any lane
	_ = e.seg(-1)            // …and the global view
}

// tick is one of the engine's sequential entry points: no marker, and
// free to read the global segment.
func (e *engine) tick() int { return len(e.queue) + len(e.segment.writers) }

// seg is the sanctioned resolver: a view is a lane, or negative for the
// global segment, which an affine context may touch only under exactly
// this guard on its own view. Clean.
//
//seve:lane-affine
func (e *engine) seg(view int) *segment {
	if view < 0 {
		return &e.segment
	}
	return &e.lanes[view]
}

// commitOwnView reaches whichever segment its pending was stamped on — a
// lane's or the global one — through the pending's own view. Clean.
//
//seve:lane-affine
func (e *engine) commitOwnView(p *pending) {
	g := e.seg(p.viewLane)
	g.installed++
	g.push(2)
	if p.viewLane < 0 {
		e.installed++
	}
}

// rogueGlobal reaches the global segment from a lane worker: by name,
// through a promoted field and a promoted method, under a guard on
// something other than its own view, and by asking the resolver for a
// view that is not its own.
//
//seve:lane-affine
func (e *engine) rogueGlobal(p *pending, n int) {
	e.segment.installed++ // want `global segment e.segment reached from a lane-affine context`
	_ = len(e.queue)      // want `global segment e.queue reached from a lane-affine context`
	e.push(3)             // want `global segment e.push reached from a lane-affine context`
	if n < 0 {
		e.installed++ // want `global segment e.installed reached from a lane-affine context`
	}
	_ = e.seg(-1) // want `cross-lane call: seg given lane <expr> from a lane-affine context`
}

// touchUnannotated has no declared context at all.
func (e *engine) touchUnannotated(p *pending) {
	e.lanes[0].installed++ // want `lane segment e.lanes indexed outside a lane worker or seal pass`
	n := len(e.lanes)      // want `lane segments e.lanes touched outside a lane worker or seal pass`
	e.StampLane(0, nil)    // want `lane-affine function StampLane called outside a lane worker or seal pass`
	e.CommitLane(p)        // want `lane-affine function CommitLane called outside a lane worker or seal pass`
	_ = n
}

// crossLane indexes a neighbour's segment from an affine context.
func (e *engine) crossLane(lane int, p *pending) {
	e.lanes[lane].installed++
	e.lanes[lane+1].installed++ // want `cross-lane access: e.lanes\[<expr>\] from a lane-affine context`
	e.lanes[0].installed++      // want `cross-lane access: e.lanes\[0\] from a lane-affine context`
	e.StampLane(lane, nil)
	e.StampLane(p.lane, nil)
	e.StampLane(0, nil) // want `cross-lane call: StampLane given lane 0 from a lane-affine context`
	for range e.lanes { // want `whole-slice access to e.lanes from a lane-affine context`
	}
	e.SealInstall() // want `seal-pass function SealInstall called from a lane-affine context`
}

// phaseClosure is the router's fan-out shape: the literal's own lane
// parameter makes it affine, and the captured engine is indexed by it.
func (e *engine) phaseClosure(run func(fn func(lane int))) {
	run(func(lane int) {
		e.lanes[lane].installed++
		e.StampLane(lane, nil)
	})
	run(func(lane int) {
		e.lanes[lane-1].installed++ // want `cross-lane access: e.lanes\[<expr>\] from a lane-affine context`
	})
}

// otherLanes is a field also named lanes but not of []laneSeg; the
// type-based matcher must leave it alone.
type router struct {
	lanes [][]int
}

func (r *router) buffers() int {
	r.lanes[0] = nil
	return len(r.lanes)
}
