package manhattan

import (
	"math"
	"testing"
	"testing/quick"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/spatial"
	"seve/internal/world"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 200, 200
	cfg.NumWalls = 100
	cfg.NumAvatars = 8
	cfg.Seed = 42
	return cfg
}

func TestNewWorldGeneratesWalls(t *testing.T) {
	w := NewWorld(smallConfig())
	if w.Walls.Len() != 100 {
		t.Fatalf("walls = %d", w.Walls.Len())
	}
	for i := 0; i < w.Walls.Len(); i++ {
		s := w.Walls.Segment(i)
		if !w.Bounds.Contains(s.A) || !w.Bounds.Contains(s.B) {
			t.Fatalf("wall %d out of bounds: %+v", i, s)
		}
		if s.Len() > w.Cfg.WallLength+1e-9 {
			t.Fatalf("wall %d too long: %v", i, s.Len())
		}
	}
}

// TestVisibleWallsHostilePositions: a position geom.CellOf refuses is
// counted exactly and stays out of the cache; an ordinary one is still
// served from its cell.
func TestVisibleWallsHostilePositions(t *testing.T) {
	w := NewWorld(smallConfig())
	edge := float64(1<<30) * w.Cfg.Visibility
	for _, p := range []geom.Vec{
		{X: math.NaN(), Y: 5}, {X: math.Inf(1), Y: 5}, {X: 5, Y: math.Inf(-1)},
		{X: 1e300, Y: 1e300}, {X: -1e300, Y: 0}, {X: edge, Y: 0}, {X: 0, Y: -edge},
	} {
		if got, want := w.VisibleWalls(p), w.ExactVisibleWalls(p); got != want {
			t.Fatalf("VisibleWalls(%v) = %d, want %d", p, got, want)
		}
	}
	if len(w.visCache) != 0 {
		t.Fatalf("hostile positions cached %d cells", len(w.visCache))
	}
	w.VisibleWalls(geom.Vec{X: 100, Y: 100})
	if len(w.visCache) != 1 {
		t.Fatalf("an ordinary position cached %d cells, want 1", len(w.visCache))
	}
}

func TestWorldGenerationDeterministic(t *testing.T) {
	a := NewWorld(smallConfig())
	b := NewWorld(smallConfig())
	if !a.InitialState(0).Equal(b.InitialState(0)) {
		t.Fatal("same seed produced different initial states")
	}
	for i := 0; i < a.Walls.Len(); i++ {
		if a.Walls.Segment(i) != b.Walls.Segment(i) {
			t.Fatal("same seed produced different walls")
		}
	}
}

func TestInitialStateRandomPlacement(t *testing.T) {
	w := NewWorld(smallConfig())
	st := w.InitialState(0)
	if st.Len() != 8 {
		t.Fatalf("avatars = %d", st.Len())
	}
	for i := 1; i <= 8; i++ {
		v, ok := st.Get(AvatarID(i))
		if !ok || len(v) != attrCount {
			t.Fatalf("avatar %d tuple = %v", i, v)
		}
		if !w.Bounds.Contains(AvatarPos(v)) {
			t.Fatalf("avatar %d out of bounds", i)
		}
		if d := AvatarDir(v).Len(); math.Abs(d-1) > 1e-9 {
			t.Fatalf("avatar %d heading not unit: %v", i, d)
		}
	}
}

func TestInitialStateGridPlacement(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAvatars = 9
	w := NewWorld(cfg)
	st := w.InitialState(4)
	// First avatar at (4,4), second at (8,4), … 4 units apart.
	v1, _ := st.Get(AvatarID(1))
	v2, _ := st.Get(AvatarID(2))
	if AvatarPos(v1).Dist(AvatarPos(v2)) != 4 {
		t.Fatalf("grid spacing = %v", AvatarPos(v1).Dist(AvatarPos(v2)))
	}
}

func TestMoveCostModel(t *testing.T) {
	w := NewWorld(smallConfig())
	// Paper calibration: ~1000 visible walls → ~6.95 ms + base.
	got := w.MoveCostMs(1000, 7)
	want := w.Cfg.BaseCostMs + 6.95
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MoveCostMs(1000) = %v, want %v", got, want)
	}
}

func TestNewMoveReadSet(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWalls = 0
	w := NewWorld(cfg)
	st := world.NewState()
	// Avatar 1 at origin; avatar 2 within effect range (10); avatar 3
	// outside it.
	st.Set(AvatarID(1), world.Value{0, 0, 1, 0})
	st.Set(AvatarID(2), world.Value{5, 0, 1, 0})
	st.Set(AvatarID(3), world.Value{50, 0, 1, 0})
	for i := 4; i <= cfg.NumAvatars; i++ {
		st.Set(AvatarID(i), world.Value{150, 150, 1, 0})
	}
	m, err := w.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ReadSet().Equal(world.NewIDSet(1, 2)) {
		t.Fatalf("ReadSet = %v, want [1 2]", m.ReadSet())
	}
	if !m.WriteSet().Equal(world.NewIDSet(1)) {
		t.Fatalf("WriteSet = %v", m.WriteSet())
	}
	if m.Influence().Center != (geom.Vec{X: 0, Y: 0}) || m.Influence().R != cfg.EffectRange {
		t.Fatalf("Influence = %+v", m.Influence())
	}
}

func TestNewMoveUnknownAvatar(t *testing.T) {
	w := NewWorld(smallConfig())
	if _, err := w.NewMove(action.ID{}, 99, world.NewState()); err == nil {
		t.Fatal("move for unknown avatar created")
	}
}

func TestMoveAdvances(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWalls = 0
	w := NewWorld(cfg)
	st := world.NewState()
	st.Set(AvatarID(1), world.Value{100, 100, 1, 0})
	m, _ := w.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	res := action.Eval(m, world.StateView{S: st})
	if !res.OK || len(res.Writes) != 1 {
		t.Fatalf("result = %+v", res)
	}
	nv := res.Writes[0].Val
	// 0.01 units/ms × 300 ms = 3 units along +x.
	if nv[AttrX] != 103 || nv[AttrY] != 100 {
		t.Fatalf("new pos = (%v, %v), want (103, 100)", nv[AttrX], nv[AttrY])
	}
}

func TestMoveBouncesOffBounds(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWalls = 0
	w := NewWorld(cfg)
	st := world.NewState()
	// Heading straight at the right edge from 1 unit away.
	st.Set(AvatarID(1), world.Value{199, 100, 1, 0})
	m, _ := w.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	res := action.Eval(m, world.StateView{S: st})
	nv := res.Writes[0].Val
	if nv[AttrX] != 199 || nv[AttrY] != 100 {
		t.Fatalf("bounced avatar moved: (%v, %v)", nv[AttrX], nv[AttrY])
	}
	// Direction rotated 90°: (1,0) → (0,1).
	if math.Abs(nv[AttrDirX]) > 1e-9 || math.Abs(nv[AttrDirY]-1) > 1e-9 {
		t.Fatalf("direction after bounce = (%v, %v)", nv[AttrDirX], nv[AttrDirY])
	}
}

func TestMoveBouncesOffAvatar(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWalls = 0
	w := NewWorld(cfg)
	st := world.NewState()
	st.Set(AvatarID(1), world.Value{100, 100, 1, 0})
	st.Set(AvatarID(2), world.Value{103.5, 100, 0, 1}) // in the path (3 + collision 2)
	m, _ := w.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	res := action.Eval(m, world.StateView{S: st})
	nv := res.Writes[0].Val
	if nv[AttrX] != 100 {
		t.Fatalf("avatar advanced through collision: x = %v", nv[AttrX])
	}
}

func TestMoveBouncesOffWall(t *testing.T) {
	cfg := smallConfig()
	cfg.NumWalls = 0
	w := NewWorld(cfg)
	// Insert a vertical wall right in front of the avatar by rebuilding
	// the world with one deterministic wall: easier to place manually.
	wallWorld := &World{Cfg: cfg, Bounds: w.Bounds}
	wallWorld.Walls = spatial.NewSegmentIndex([]geom.Segment{{A: geom.Vec{X: 103, Y: 95}, B: geom.Vec{X: 103, Y: 105}}}, cfg.Visibility)
	st := world.NewState()
	st.Set(AvatarID(1), world.Value{100, 100, 1, 0})
	m, _ := wallWorld.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	if m.VisibleWalls() != 1 {
		t.Fatalf("visible walls = %d", m.VisibleWalls())
	}
	res := action.Eval(m, world.StateView{S: st})
	nv := res.Writes[0].Val
	if nv[AttrX] != 100 {
		t.Fatalf("avatar advanced through wall: x = %v", nv[AttrX])
	}
}

func TestMoveAbortsWithoutSelf(t *testing.T) {
	w := NewWorld(smallConfig())
	st := w.InitialState(0)
	m, _ := w.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	empty := world.NewState()
	res := action.Eval(m, world.StateView{S: empty})
	if res.OK {
		t.Fatal("move committed without its avatar")
	}
}

func TestMoveDeterministic(t *testing.T) {
	w := NewWorld(smallConfig())
	st := w.InitialState(0)
	m, _ := w.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	r1 := action.Eval(m, world.StateView{S: st})
	r2 := action.Eval(m, world.StateView{S: st})
	if !r1.Equal(r2) {
		t.Fatal("move not deterministic")
	}
}

func TestMoveWireRoundTrip(t *testing.T) {
	w := NewWorld(smallConfig())
	st := w.InitialState(4)
	m, _ := w.NewMove(action.ID{Client: 3, Seq: 9}, AvatarID(3), st)
	body := m.MarshalBody()
	got, err := UnmarshalMove(w, m.ID(), body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != m.ID() || got.Avatar() != m.Avatar() {
		t.Fatalf("identity lost: %+v", got)
	}
	if !got.ReadSet().Equal(m.ReadSet()) {
		t.Fatalf("read set = %v, want %v", got.ReadSet(), m.ReadSet())
	}
	if got.VisibleWalls() != m.VisibleWalls() {
		t.Fatalf("visible walls = %d, want %d", got.VisibleWalls(), m.VisibleWalls())
	}
	if got.Influence() != m.Influence() {
		t.Fatalf("influence = %+v", got.Influence())
	}
	// The decoded action must evaluate identically.
	r1 := action.Eval(m, world.StateView{S: st})
	r2 := action.Eval(got, world.StateView{S: st})
	if !r1.Equal(r2) {
		t.Fatal("decoded move evaluates differently")
	}
}

// TestMovesCutFromOneArena: the moves decoded from one slab are distinct
// structs cut from its arena, each decoding to what was sent, and how
// many there are does not change how often decoding them allocates.
func TestMovesCutFromOneArena(t *testing.T) {
	w := NewWorld(smallConfig())
	st := w.InitialState(8)
	var bodies [][]byte
	var sent []*MoveAction
	words := 0
	for i := 1; i <= 32; i++ {
		m, _ := w.NewMove(action.ID{Client: 1, Seq: uint32(i)}, AvatarID(i%8+1), st)
		sent = append(sent, m)
		bodies = append(bodies, m.MarshalBody())
		words += len(bodies[i-1]) / 8
	}
	slab := world.NewSlab(words, 0, len(bodies))
	seen := map[*MoveAction]bool{}
	for i, body := range bodies {
		got, err := UnmarshalMove(w, sent[i].ID(), body, slab)
		if err != nil {
			t.Fatal(err)
		}
		if seen[got] || got.ID() != sent[i].ID() || got.Avatar() != sent[i].Avatar() || !got.ReadSet().Equal(sent[i].ReadSet()) {
			t.Fatalf("move %d: %+v, handed out before: %v", i, got, seen[got])
		}
		seen[got] = true
	}
	decode := func(n int) func() {
		return func() {
			slab := world.NewSlab(words, 0, n)
			for _, body := range bodies[:n] {
				UnmarshalMove(w, action.ID{}, body, slab)
			}
		}
	}
	if few, many := testing.AllocsPerRun(20, decode(4)), testing.AllocsPerRun(20, decode(32)); few != many {
		t.Fatalf("4 moves decoded in %.0f allocations, 32 in %.0f", few, many)
	}
}

func TestMoveUnmarshalErrors(t *testing.T) {
	w := NewWorld(smallConfig())
	if _, err := UnmarshalMove(w, action.ID{}, []byte{1, 2, 3}, nil); err == nil {
		t.Fatal("short body accepted")
	}
	st := w.InitialState(4)
	m, _ := w.NewMove(action.ID{Client: 1, Seq: 1}, AvatarID(1), st)
	body := m.MarshalBody()
	if _, err := UnmarshalMove(w, action.ID{}, body[:len(body)-4], nil); err == nil {
		t.Fatal("truncated read set accepted")
	}
}

// TestMoveStaysInBoundsProperty: avatars never escape the world no
// matter how many moves execute.
func TestMoveStaysInBoundsProperty(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAvatars = 4
	w := NewWorld(cfg)
	f := func(seed int64) bool {
		st := w.InitialState(0)
		seq := uint32(0)
		for step := 0; step < 50; step++ {
			for i := 1; i <= cfg.NumAvatars; i++ {
				seq++
				m, err := w.NewMove(action.ID{Client: action.ClientID(i), Seq: seq}, AvatarID(i), st)
				if err != nil {
					return false
				}
				res := action.Eval(m, world.StateView{S: st})
				if !res.OK {
					return false
				}
				for _, wr := range res.Writes {
					st.Set(wr.ID, wr.Val)
				}
			}
		}
		for i := 1; i <= cfg.NumAvatars; i++ {
			v, _ := st.Get(AvatarID(i))
			if !w.Bounds.Contains(AvatarPos(v)) {
				return false
			}
			if math.Abs(AvatarDir(v).Len()-1) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestVisibleAvatarCount(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAvatars = 3
	w := NewWorld(cfg)
	st := world.NewState()
	st.Set(AvatarID(1), world.Value{0, 0, 1, 0})
	st.Set(AvatarID(2), world.Value{20, 0, 1, 0})  // within visibility 30
	st.Set(AvatarID(3), world.Value{100, 0, 1, 0}) // outside
	if got := w.VisibleAvatarCount(st, AvatarID(1)); got != 1 {
		t.Fatalf("VisibleAvatarCount = %d, want 1", got)
	}
	if got := w.VisibleAvatarCount(st, AvatarID(99)); got != 0 {
		t.Fatalf("count for unknown avatar = %d", got)
	}
}

func TestInitialStateCrowded(t *testing.T) {
	cfg := smallConfig()
	cfg.NumAvatars = 40
	w := NewWorld(cfg)
	st := w.InitialStateCrowded(0.5)
	inCorner := 0
	for i := 1; i <= cfg.NumAvatars; i++ {
		v, ok := st.Get(AvatarID(i))
		if !ok {
			t.Fatalf("avatar %d missing", i)
		}
		p := AvatarPos(v)
		if !w.Bounds.Contains(p) {
			t.Fatalf("avatar %d out of bounds", i)
		}
		if p.X <= cfg.Width/4 && p.Y <= cfg.Height/4 {
			inCorner++
		}
	}
	// Half are forced into the corner; a few uniform ones land there too.
	if inCorner < 20 {
		t.Fatalf("only %d avatars in the crowd corner, want ≥ 20", inCorner)
	}
	// Clamping of the fraction.
	if got := w.InitialStateCrowded(2.0); got.Len() != cfg.NumAvatars {
		t.Fatal("clamped fraction broke placement")
	}
	if got := w.InitialStateCrowded(-1); got.Len() != cfg.NumAvatars {
		t.Fatal("negative fraction broke placement")
	}
}

// TestWarmMoveApplyAllocatesNothing: a replica applies a move through
// its scratch transaction, reading ζCS as of a serial position; once the
// transaction is warm, a Reset and an Apply — the neighbour reads, the
// wall count and the buffered write — allocate nothing.
func TestWarmMoveApplyAllocatesNothing(t *testing.T) {
	w := NewWorld(smallConfig())
	st := w.InitialState(4) // a row 4 apart: every move reads neighbours
	cs := world.NewMVStore()
	cs.Seed(st)
	var moves []*MoveAction
	for a := 1; a <= w.Cfg.NumAvatars; a++ {
		m, err := w.NewMove(action.ID{Client: 1, Seq: uint32(a)}, AvatarID(a), st)
		if err != nil {
			t.Fatal(err)
		}
		moves = append(moves, m)
	}
	view := world.AtView{M: cs, Seq: 0}
	tx := world.NewTx(&view)
	round := func() {
		for _, m := range moves {
			tx.Reset(&view)
			if !m.Apply(tx) {
				t.Fatal("move aborted")
			}
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("a warm round of %d moves allocated %.1f times, want 0", len(moves), allocs)
	}
}
