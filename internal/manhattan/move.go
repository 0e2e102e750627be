package manhattan

import (
	"encoding/binary"
	"fmt"
	"math"

	"seve/internal/action"
	"seve/internal/geom"
	"seve/internal/wire"
	"seve/internal/world"
)

// KindMove is the wire kind of Manhattan People move actions.
const KindMove action.Kind = 1

// MoveAction advances one avatar by one step (Speed × StepMs units along
// its heading), bouncing 90° off world bounds, walls, and other avatars.
//
// Read set: the avatar itself plus every avatar within EffectRange at
// creation time — the paper's semantic conflict declaration ("the range
// and nature" of the action, Section I). Write set: the avatar itself.
// The action is deterministic in its read values and the static walls,
// so every replica that evaluates it with the same versions computes the
// same result.
type MoveAction struct {
	id action.ID
	w  *World
	// origin is the avatar position at creation: the center of the
	// action's influence sphere (p̄A of Equation (1)), and the position
	// Algorithm 7 measures chain distances between.
	origin geom.Vec
	// heading at creation, for area culling (Section IV-B).
	heading geom.Vec
	// visibleWalls calibrates this move's compute cost.
	visibleWalls int
	rs           world.IDSet
	// ws is WS(a), the moving avatar alone, held in the action itself:
	// the engines ask for the set per submit, per reconcile and per audit,
	// and slicing this builds nothing.
	ws [1]world.ObjectID
}

// NewMove builds the next move for an avatar, reading its current tuple
// from view (typically the client's optimistic state — the freshest
// picture the player has).
func (w *World) NewMove(id action.ID, avatar world.ObjectID, view world.Reader) (*MoveAction, error) {
	v, ok := view.Get(avatar)
	if !ok {
		return nil, fmt.Errorf("manhattan: avatar %d not in view", avatar)
	}
	pos := AvatarPos(v)
	nearby := w.NearbyAvatars(view, avatar, pos, w.Cfg.EffectRange)
	rs := world.NewIDSet(append(nearby, avatar)...)
	return &MoveAction{
		id:           id,
		w:            w,
		origin:       pos,
		heading:      AvatarDir(v),
		visibleWalls: w.VisibleWalls(pos),
		rs:           rs,
		ws:           [1]world.ObjectID{avatar},
	}, nil
}

// ID returns the action identity.
func (m *MoveAction) ID() action.ID { return m.id }

// Kind returns KindMove.
func (m *MoveAction) Kind() action.Kind { return KindMove }

// ReadSet returns the avatar plus the avatars within effect range at
// creation.
func (m *MoveAction) ReadSet() world.IDSet { return m.rs }

// WriteSet returns the moving avatar.
func (m *MoveAction) WriteSet() world.IDSet { return m.ws[:] }

// VisibleWalls returns the wall count the move's cost is based on.
func (m *MoveAction) VisibleWalls() int { return m.visibleWalls }

// Avatar returns the moving avatar's object id.
func (m *MoveAction) Avatar() world.ObjectID { return m.ws[0] }

// CostMs implements the per-move compute cost, charged by the simulation
// adapter to whichever node evaluates the move.
func (m *MoveAction) CostMs() float64 {
	return m.w.MoveCostMs(m.visibleWalls, m.rs.Len()-1)
}

// Influence returns the move's area of influence: a sphere of
// EffectRange about the avatar's position at creation.
func (m *MoveAction) Influence() geom.Circle {
	return geom.Circle{Center: m.origin, R: m.w.Cfg.EffectRange}
}

// Motion returns the avatar's velocity vector for area culling.
func (m *MoveAction) Motion() geom.Vec {
	return m.heading.Scale(m.w.Cfg.Speed)
}

// Apply executes the move: read self, read the declared neighbours,
// advance, bounce 90° on collision. If the avatar's tuple is missing the
// move aborts as a no-op (Bayou-style conflict behaviour).
func (m *MoveAction) Apply(tx *world.Tx) bool {
	avatar := m.ws[0]
	self, ok := tx.Read(avatar)
	if !ok {
		return false
	}
	pos, dir := AvatarPos(self), AvatarDir(self)
	cfg := m.w.Cfg
	next := pos.Add(dir.Scale(cfg.Speed * cfg.StepMs))

	// Every declared neighbour is read whether or not an earlier one is
	// already in the way: the reads a replica records must not depend on
	// where the others stand.
	bumped := false
	for _, id := range m.rs {
		if id == avatar {
			continue
		}
		if v, ok := tx.Read(id); ok && next.Dist2(AvatarPos(v)) <= cfg.CollisionDist*cfg.CollisionDist {
			bumped = true
		}
	}
	if bumped || m.blocked(next) {
		// Bump: change direction by 90° and stay put this step.
		dir = dir.Rotate90()
		next = pos
	}
	tx.Write(avatar, world.Value{next.X, next.Y, dir.X, dir.Y})
	return true
}

// blocked reports whether moving to next would hit the world edge or a
// wall.
func (m *MoveAction) blocked(next geom.Vec) bool {
	if !m.w.Bounds.Contains(next) {
		return true
	}
	// Wall check against walls near the new position. The index lookup
	// is a stand-in for the paper's trig-heavy per-wall collision math;
	// the real cost is charged via CostMs.
	return m.w.Walls.AnyWithin(next, m.w.Cfg.AvatarRadius)
}

// MarshalBody encodes avatar id, origin, heading, visible walls and the
// read set. The World pointer is supplied at decode time by the
// registered decoder (static geometry ships with the client binary, not
// per action).
func (m *MoveAction) MarshalBody() []byte {
	return m.AppendBody(make([]byte, 0, 48+8*m.rs.Len()))
}

// AppendBody appends the MarshalBody encoding to buf.
func (m *MoveAction) AppendBody(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.ws[0]))
	buf = appendFloat(buf, m.origin.X)
	buf = appendFloat(buf, m.origin.Y)
	buf = appendFloat(buf, m.heading.X)
	buf = appendFloat(buf, m.heading.Y)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.visibleWalls))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(m.rs.Len()))
	for _, id := range m.rs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, floatBits(f))
}

// RegisterWire installs the MoveAction decoder bound to w. Call once per
// process that receives moves over the real wire; the simulator passes
// actions by reference and does not need it.
func RegisterWire(w *World) {
	wire.RegisterKind(KindMove, func(id action.ID, body []byte, slab *world.Slab) (action.Action, error) {
		return UnmarshalMove(w, id, body, slab)
	})
}

// UnmarshalMove decodes a MoveAction body against the given world,
// cutting the action and its read set from slab (nil allocates each on
// its own).
func UnmarshalMove(w *World, id action.ID, body []byte, slab *world.Slab) (*MoveAction, error) {
	const hdr = 8 + 4*8 + 4 + 2
	if len(body) < hdr {
		return nil, fmt.Errorf("manhattan: move body truncated: %d bytes", len(body))
	}
	n := int(binary.LittleEndian.Uint16(body[44:]))
	if len(body) < hdr+8*n {
		return nil, fmt.Errorf("manhattan: move read set truncated")
	}
	m := world.Obj[MoveAction](slab)
	m.id, m.w = id, w
	m.ws[0] = world.ObjectID(binary.LittleEndian.Uint64(body))
	m.origin.X = floatFrom(body[8:])
	m.origin.Y = floatFrom(body[16:])
	m.heading.X = floatFrom(body[24:])
	m.heading.Y = floatFrom(body[32:])
	m.visibleWalls = int(binary.LittleEndian.Uint32(body[40:]))
	ids := slab.IDs(n)
	for i := 0; i < n; i++ {
		ids[i] = world.ObjectID(binary.LittleEndian.Uint64(body[hdr+8*i:]))
	}
	m.rs = world.AsIDSet(ids)
	return m, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFrom(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
