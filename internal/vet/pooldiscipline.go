package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// poolChecker enforces the ownership contract of the pooled delivery
// path (DESIGN.md §8): every wire.GetBuf must reach PutBuf on every
// path out of the acquiring function, every Frame reference created by
// NewFrame/NewFrameCached/Retain must be Released or handed off exactly
// once, and a pooled value must not be touched after it goes back to
// the pool. Violations are use-after-free or pool-starvation bugs that
// only surface under load, never in small tests.
//
// The analysis is an intra-procedural abstract interpretation over the
// statement tree: branch states are cloned and merged (a buffer counts
// as released only when every surviving branch released it; frame
// refcounts merge to the worst case), loops are evaluated for one
// abstract iteration, and ownership transfers — returning the value,
// sending it on a channel, storing it into a field or a composite
// literal, or handing it to a deferred cleanup — end tracking. Lending a buffer to an ordinary call
// (conn.Write(buf), append(buf, ...)) does not: the caller still owns
// it. Storing a slice of a buffer into the heap (w.pend = rec[8:],
// w.pend = append(w.pend, rec)) moves nothing either — the function
// still owes the PutBuf — but it leaves an alias behind, and returning
// the buffer to the pool while the alias stands is a use-after-free in
// waiting: the coalescing writer must copy (append(w.buf, rec...)), not
// keep. Each function literal is analyzed as its own ownership scope,
// since writer pumps and deferred cleanups run on their own schedule.
type poolChecker struct{}

func (poolChecker) Name() string { return "pooldiscipline" }

func (poolChecker) Check(u *Unit, report func(pos token.Pos, format string, args ...any)) {
	a := &poolAnalyzer{u: u, report: report}
	funcBodies(u, func(fd *ast.FuncDecl) { a.run(fd.Body) })
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				a.run(fl.Body)
			}
			return true
		})
	}
}

// isModType reports whether t is the named type pkgSuffix.name inside
// this module (or the real stdlib package when pkgSuffix has no slash).
func isModType(t types.Type, pkgSuffix, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// poolAcq is one acquisition site, shared by all branch clones so a
// leak is reported once no matter how many paths miss the release.
type poolAcq struct {
	pos       token.Pos
	name      string
	frame     bool
	deferRel  bool // a defer PutBufs the buffer on every exit
	deferRefs int  // frame references released by defers
	reported  bool
}

// poolVar is the per-path state of one tracked variable.
type poolVar struct {
	acq      *poolAcq
	released bool // buffers: PutBuf has run on this path
	refs     int  // frames: references this function still owns
	escaped  bool // ownership transferred; stop tracking
	// stored marks a buffer a slice of which this path stored into the
	// heap while keeping the release duty.
	stored bool
}

type poolState struct {
	vars map[types.Object]*poolVar
}

func newPoolState() *poolState { return &poolState{vars: make(map[types.Object]*poolVar)} }

func (st *poolState) clone() *poolState {
	c := &poolState{vars: make(map[types.Object]*poolVar, len(st.vars))}
	for k, v := range st.vars {
		cv := *v
		c.vars[k] = &cv
	}
	return c
}

// mergeStates joins two surviving branches leak-biased: released only
// if released on both, escaped if escaped on either, refcount the
// maximum still owed.
func mergeStates(a, b *poolState) *poolState {
	out := &poolState{vars: make(map[types.Object]*poolVar, len(a.vars))}
	for k, va := range a.vars {
		cv := *va
		if vb, ok := b.vars[k]; ok {
			cv.released = va.released && vb.released
			cv.escaped = va.escaped || vb.escaped
			cv.stored = va.stored || vb.stored
			if vb.refs > cv.refs {
				cv.refs = vb.refs
			}
		}
		out.vars[k] = &cv
	}
	for k, vb := range b.vars {
		if _, ok := a.vars[k]; !ok {
			cv := *vb
			out.vars[k] = &cv
		}
	}
	return out
}

type poolAnalyzer struct {
	u      *Unit
	report func(pos token.Pos, format string, args ...any)
}

func (a *poolAnalyzer) run(body *ast.BlockStmt) {
	st := newPoolState()
	if !a.block(st, body.List) {
		a.exitCheck(st)
	}
}

func (a *poolAnalyzer) obj(id *ast.Ident) types.Object {
	if o := a.u.Info.Uses[id]; o != nil {
		return o
	}
	return a.u.Info.Defs[id]
}

// wireFunc resolves a call to a package-level function of internal/wire
// and returns its name.
func wireFunc(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/wire") {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	return fn.Name()
}

// frameMethod matches x.M(...) where x is an identifier of type
// *wire.Frame, returning the method name and receiver.
func frameMethod(info *types.Info, call *ast.CallExpr) (string, *ast.Ident) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", nil
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if !isModType(rt, "internal/wire", "Frame") {
		return "", nil
	}
	id, _ := sel.X.(*ast.Ident)
	return fn.Name(), id
}

// findAcquisition returns the first GetBuf / NewFrame / NewFrameCached
// call anywhere inside e. Searching call arguments lets derived
// acquisitions (buf := AppendFrame(GetBuf(n), msg)) track the variable
// that ends up owning the pooled backing array.
func (a *poolAnalyzer) findAcquisition(e ast.Expr) (call *ast.CallExpr, frame, found bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch wireFunc(a.u.Info, c) {
		case "GetBuf":
			call, frame, found = c, false, true
			return false
		case "NewFrame", "NewFrameCached":
			call, frame, found = c, true, true
			return false
		}
		return true
	})
	return
}

// mentionsObj reports whether e references obj — the self-derivation
// test that keeps buf = append(buf, ...) tracked.
func (a *poolAnalyzer) mentionsObj(e ast.Expr, obj types.Object) bool {
	var hit bool
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && a.obj(id) == obj {
			hit = true
		}
		return !hit
	})
	return hit
}

// isTerminalCall recognizes calls that never return: panic, os.Exit,
// runtime.Goexit, and the testing.TB Fatal/Skip family (matched by
// name; a live buffer on a crashing path is not a pool leak).
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := info.Uses[f].(*types.Builtin); ok && f.Name == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		switch f.Sel.Name {
		case "Fatal", "Fatalf", "Fatalln", "FailNow", "Skip", "Skipf", "SkipNow", "Goexit", "Exit":
			return true
		}
	}
	return false
}

// leakIfLive reports a variable that still owns pooled state.
func (a *poolAnalyzer) leakIfLive(v *poolVar) {
	if v.escaped || v.acq.reported {
		return
	}
	if v.acq.frame {
		if v.refs-v.acq.deferRefs > 0 {
			v.acq.reported = true
			a.report(v.acq.pos, "frame %q is not released on every path", v.acq.name)
		}
		return
	}
	if !v.released && !v.acq.deferRel {
		v.acq.reported = true
		a.report(v.acq.pos, "wire.GetBuf buffer %q is not returned with PutBuf on every path", v.acq.name)
	}
}

func (a *poolAnalyzer) exitCheck(st *poolState) {
	for _, v := range st.vars {
		a.leakIfLive(v)
	}
}

// scopeDeath checks and drops variables whose declaration lies inside
// n: they go out of scope when n ends, so whatever they still own
// leaks right here (the loop-body and if-init cases).
func (a *poolAnalyzer) scopeDeath(st *poolState, n ast.Node) {
	for obj, v := range st.vars {
		if obj.Pos() >= n.Pos() && obj.Pos() <= n.End() {
			a.leakIfLive(v)
			delete(st.vars, obj)
		}
	}
}

// block walks a statement list, reporting whether control cannot fall
// off its end.
func (a *poolAnalyzer) block(st *poolState, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if a.stmt(st, s) {
			return true
		}
	}
	return false
}

func (a *poolAnalyzer) stmt(st *poolState, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return a.stmtExpr(st, s.X)
	case *ast.AssignStmt:
		a.assign(st, s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					a.expr(st, val)
					if i < len(vs.Names) {
						a.bind(st, vs.Names[i], val, true)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.expr(st, r)
			if id, ok := r.(*ast.Ident); ok {
				if v := st.vars[a.obj(id)]; v != nil {
					v.escaped = true
				}
			}
		}
		a.exitCheck(st)
		return true
	case *ast.DeferStmt:
		a.deferStmt(st, s.Call)
	case *ast.GoStmt:
		a.callEscapes(st, s.Call)
	case *ast.SendStmt:
		a.expr(st, s.Chan)
		a.expr(st, s.Value)
		if id, ok := s.Value.(*ast.Ident); ok {
			if v := st.vars[a.obj(id)]; v != nil && !v.escaped {
				if v.acq.frame {
					v.refs-- // one reference travels with the frame
				} else {
					v.escaped = true
				}
			}
		}
	case *ast.IncDecStmt:
		a.expr(st, s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			a.stmt(st, s.Init)
		}
		a.expr(st, s.Cond)
		thenSt := st.clone()
		thenTerm := a.block(thenSt, s.Body.List)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = a.stmt(elseSt, s.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *mergeStates(thenSt, elseSt)
		}
		a.scopeDeath(st, s)
	case *ast.ForStmt:
		if s.Init != nil {
			a.stmt(st, s.Init)
		}
		if s.Cond != nil {
			a.expr(st, s.Cond)
		}
		bodySt := st.clone()
		if !a.block(bodySt, s.Body.List) {
			if s.Post != nil {
				a.stmt(bodySt, s.Post)
			}
			*st = *mergeStates(st, bodySt)
		}
		a.scopeDeath(st, s)
	case *ast.RangeStmt:
		a.expr(st, s.X)
		bodySt := st.clone()
		if !a.block(bodySt, s.Body.List) {
			*st = *mergeStates(st, bodySt)
		}
		a.scopeDeath(st, s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			a.stmt(st, s.Init)
		}
		if s.Tag != nil {
			a.expr(st, s.Tag)
		}
		return a.clauses(st, s, s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			a.stmt(st, s.Init)
		}
		return a.clauses(st, s, s.Body.List)
	case *ast.SelectStmt:
		return a.clauses(st, s, s.Body.List)
	case *ast.BlockStmt:
		term := a.block(st, s.List)
		a.scopeDeath(st, s)
		return term
	case *ast.LabeledStmt:
		return a.stmt(st, s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: control leaves this branch without
		// exiting the function; its state rejoins elsewhere, which the
		// merge approximates by dropping it.
		return true
	}
	return false
}

// clauses walks switch/select bodies: each clause starts from a clone
// of the entry state and surviving clauses merge. A missing default
// keeps the entry state as a surviving path.
func (a *poolAnalyzer) clauses(st *poolState, parent ast.Node, list []ast.Stmt) bool {
	var survivors []*poolState
	hasDefault := false
	for _, c := range list {
		cs := st.clone()
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				a.expr(cs, e)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				a.stmt(cs, c.Comm)
			}
			body = c.Body
		default:
			continue
		}
		if !a.block(cs, body) {
			survivors = append(survivors, cs)
		}
	}
	if !hasDefault {
		if _, isSelect := parent.(*ast.SelectStmt); !isSelect {
			survivors = append(survivors, st.clone())
		} else if len(list) == 0 {
			survivors = append(survivors, st.clone())
		}
	}
	if len(survivors) == 0 {
		return true
	}
	merged := survivors[0]
	for _, s := range survivors[1:] {
		merged = mergeStates(merged, s)
	}
	*st = *merged
	a.scopeDeath(st, parent)
	return false
}

// stmtExpr handles an expression statement, where PutBuf / Retain /
// Release calls mutate ownership state.
func (a *poolAnalyzer) stmtExpr(st *poolState, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		a.expr(st, e)
		return false
	}
	if isTerminalCall(a.u.Info, call) {
		for _, arg := range call.Args {
			a.expr(st, arg)
		}
		return true
	}
	switch wireFunc(a.u.Info, call) {
	case "GetBuf", "NewFrame", "NewFrameCached":
		a.report(call.Pos(), "result of %s is discarded; the pooled buffer can never be returned",
			wireFunc(a.u.Info, call))
		for _, arg := range call.Args {
			a.expr(st, arg)
		}
		return false
	case "PutBuf":
		if len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if v := st.vars[a.obj(id)]; v != nil && !v.acq.frame && !v.escaped {
					if v.released {
						a.report(call.Pos(), "buffer %q returned to the pool twice", id.Name)
					}
					if v.stored {
						a.report(call.Pos(), "buffer %q returned to the pool while a slice of it is still stored", id.Name)
					}
					v.released = true
					return false
				}
			}
			a.expr(st, call.Args[0])
		}
		return false
	}
	if m, id := frameMethod(a.u.Info, call); id != nil {
		if v := st.vars[a.obj(id)]; v != nil && v.acq.frame && !v.escaped {
			switch m {
			case "Retain":
				if v.refs <= 0 {
					a.report(call.Pos(), "frame %q retained after its final Release", id.Name)
					v.escaped = true // ownership is already broken; don't cascade
					return false
				}
				v.refs++
				return false
			case "Release":
				if v.refs <= 0 {
					a.report(call.Pos(), "frame %q released after its final reference", id.Name)
				} else {
					v.refs--
				}
				return false
			}
		}
	}
	a.expr(st, e)
	return false
}

// assign tracks acquisitions bound to identifiers and ownership lost
// through rebinding or stores into the heap.
func (a *poolAnalyzer) assign(st *poolState, s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		a.expr(st, r)
	}
	if len(s.Lhs) != len(s.Rhs) {
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if obj := a.obj(id); obj != nil {
					delete(st.vars, obj)
				}
			} else {
				a.expr(st, l)
			}
		}
		return
	}
	for i, l := range s.Lhs {
		r := s.Rhs[i]
		id, isIdent := l.(*ast.Ident)
		if !isIdent {
			// Store into a field, index or global: ownership moves to
			// the heap and a later owner releases it.
			a.expr(st, l)
			if rid, ok := r.(*ast.Ident); ok {
				if v := st.vars[a.obj(rid)]; v != nil {
					v.escaped = true
				}
			} else if v := a.aliased(st, r); v != nil && !v.escaped {
				v.stored = true
				if v.acq.deferRel {
					a.report(r.Pos(), "slice of pooled buffer %q stored past its deferred PutBuf", v.acq.name)
				}
			}
			continue
		}
		a.bind(st, id, r, s.Tok == token.DEFINE)
	}
}

// aliased returns the tracked buffer that e shares memory with without
// being it: a slice of the buffer, or an append that keeps the buffer
// (or a slice of it) as an element. append(dst, buf...) copies and
// aliases nothing.
func (a *poolAnalyzer) aliased(st *poolState, e ast.Expr) *poolVar {
	tracked := func(e ast.Expr) *poolVar {
		if id, ok := e.(*ast.Ident); ok {
			if v := st.vars[a.obj(id)]; v != nil && !v.acq.frame {
				return v
			}
		}
		return nil
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return a.aliased(st, e.X)
	case *ast.SliceExpr:
		if v := tracked(e.X); v != nil {
			return v
		}
		return a.aliased(st, e.X)
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || e.Ellipsis.IsValid() || len(e.Args) < 2 {
			return nil
		}
		if _, builtin := a.u.Info.Uses[id].(*types.Builtin); !builtin {
			return nil
		}
		for _, arg := range e.Args[1:] {
			if v := tracked(arg); v != nil {
				return v
			}
			if v := a.aliased(st, arg); v != nil {
				return v
			}
		}
	}
	return nil
}

// bind updates tracking for one ident = expr pair.
func (a *poolAnalyzer) bind(st *poolState, id *ast.Ident, r ast.Expr, define bool) {
	var obj types.Object
	if define {
		obj = a.u.Info.Defs[id]
	}
	if obj == nil {
		obj = a.obj(id)
	}
	if obj == nil {
		return
	}
	acqCall, frame, found := a.findAcquisition(r)
	if found {
		if old := st.vars[obj]; old != nil && !a.mentionsObj(r, obj) {
			a.leakIfLive(old) // rebound before release: the old value leaks
		}
		st.vars[obj] = &poolVar{
			acq:  &poolAcq{pos: acqCall.Pos(), name: id.Name, frame: frame},
			refs: 1,
		}
		return
	}
	if v := st.vars[obj]; v != nil {
		if a.mentionsObj(r, obj) {
			return // self-derived: buf = append(buf, ...), buf = buf[:0]
		}
		a.leakIfLive(v)
		delete(st.vars, obj)
	}
	// Aliasing hands the release duty to the new name; stop tracking
	// the source rather than demand both be released.
	if rid, ok := r.(*ast.Ident); ok {
		if v := st.vars[a.obj(rid)]; v != nil {
			v.escaped = true
		}
	}
}

// deferStmt credits deferred releases and escapes everything else a
// deferred call captures.
func (a *poolAnalyzer) deferStmt(st *poolState, call *ast.CallExpr) {
	if wireFunc(a.u.Info, call) == "PutBuf" && len(call.Args) == 1 {
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if v := st.vars[a.obj(id)]; v != nil {
				v.acq.deferRel = true
				return
			}
		}
	}
	if m, id := frameMethod(a.u.Info, call); id != nil && m == "Release" {
		if v := st.vars[a.obj(id)]; v != nil {
			v.acq.deferRefs++
			return
		}
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if wireFunc(a.u.Info, c) == "PutBuf" && len(c.Args) == 1 {
				if id, ok := c.Args[0].(*ast.Ident); ok {
					if v := st.vars[a.obj(id)]; v != nil {
						v.acq.deferRel = true
					}
				}
			}
			if m, id := frameMethod(a.u.Info, c); id != nil && m == "Release" {
				if v := st.vars[a.obj(id)]; v != nil {
					v.acq.deferRefs++
				}
			}
			return true
		})
		a.escapeCaptured(st, fl.Body)
		return
	}
	a.callEscapes(st, call)
}

// callEscapes hands ownership of tracked arguments to a call whose
// timing we cannot see (go statements, unfamiliar deferred calls).
func (a *poolAnalyzer) callEscapes(st *poolState, call *ast.CallExpr) {
	a.expr(st, call.Fun)
	for _, arg := range call.Args {
		a.expr(st, arg)
		if id, ok := arg.(*ast.Ident); ok {
			if v := st.vars[a.obj(id)]; v != nil {
				v.escaped = true
			}
		}
	}
}

// escapeCaptured escapes every tracked variable a closure body captures.
func (a *poolAnalyzer) escapeCaptured(st *poolState, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := st.vars[a.obj(id)]; v != nil {
				v.escaped = true
			}
		}
		return true
	})
}

// expr walks an expression for pooled-value uses: any read of a buffer
// after PutBuf or of a frame past its final Release is a use-after-free.
func (a *poolAnalyzer) expr(st *poolState, e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		v := st.vars[a.obj(e)]
		if v == nil || v.escaped {
			return
		}
		if !v.acq.frame && v.released {
			a.report(e.Pos(), "use of pooled buffer %q after PutBuf", e.Name)
		}
		if v.acq.frame && v.refs-v.acq.deferRefs <= 0 {
			a.report(e.Pos(), "use of frame %q after its final Release", e.Name)
		}
	case *ast.FuncLit:
		a.escapeCaptured(st, e.Body)
	case *ast.CallExpr:
		if m, id := frameMethod(a.u.Info, e); id != nil && m == "Retain" {
			// Retain in value position: the new reference travels with
			// the expression; ownership is no longer locally countable.
			if v := st.vars[a.obj(id)]; v != nil {
				v.escaped = true
			}
			return
		}
		a.expr(st, e.Fun)
		for _, arg := range e.Args {
			a.expr(st, arg)
			if id, ok := arg.(*ast.Ident); ok {
				if v := st.vars[a.obj(id)]; v != nil && v.acq.frame {
					v.escaped = true // frame handed to another function
				}
			}
		}
	case *ast.SelectorExpr:
		a.expr(st, e.X)
	case *ast.IndexExpr:
		a.expr(st, e.X)
		a.expr(st, e.Index)
	case *ast.SliceExpr:
		a.expr(st, e.X)
		a.expr(st, e.Low)
		a.expr(st, e.High)
		a.expr(st, e.Max)
	case *ast.StarExpr:
		a.expr(st, e.X)
	case *ast.UnaryExpr:
		a.expr(st, e.X)
	case *ast.BinaryExpr:
		a.expr(st, e.X)
		a.expr(st, e.Y)
	case *ast.ParenExpr:
		a.expr(st, e.X)
	case *ast.TypeAssertExpr:
		a.expr(st, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			a.expr(st, val)
			// A pooled buffer written into a composite literal travels
			// with the value — the job{buf: buf} handoff that feeds the
			// durable committer queue. The composite's consumer (channel
			// send, struct store) owns the release from here.
			if id, ok := val.(*ast.Ident); ok {
				if v := st.vars[a.obj(id)]; v != nil && !v.acq.frame {
					v.escaped = true
				}
			}
		}
	case *ast.KeyValueExpr:
		a.expr(st, e.Value)
	}
}
