package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// laneAffinityChecker enforces the lane-partitioning contract of the
// engine pipeline (DESIGN.md §12): per-lane engine state — the lane
// segments, each with its rows of the shared conflict index — may only
// be touched from a lane's own worker context or from the sequential
// Seal*/PreCommit merge passes, and the global segment never from a lane
// worker. A cross-lane read on a worker is a data race the -race
// detector only catches when two lanes actually collide in a test run;
// the contract is static, so the checker is too.
//
// Functions declare their context with a marker in the doc comment:
//
//	//seve:lane-affine   — runs over one view of the queue, possibly on
//	                       that lane's worker; may touch only its own
//	                       view's state
//	//seve:lane-seal     — runs in the sequential merge order between
//	                       parallel phases; may touch any lane
//
// A function (or literal) with an int parameter named "lane" is
// implicitly lane-affine: that is the shape of the router's phase
// closures. Inside an affine context the index of a lane-segment access
// and every lane argument handed to another affine function must be the
// context's own lane — the "lane", "w" or "view" parameter, or a
// selector ending in .lane or .viewLane (the entry and pending carry
// their owner lane). Whole-slice access (ranging, reallocation, nil
// checks) is a merge-pass operation and is flagged inside affine
// contexts.
//
// The global segment — the `segment` the engine embeds, and every field
// promoted through it — is seal-only state: a stamp or commit over it
// sees every job's entries, so it is only ever one sequential task. An
// affine function reaches it the way it reaches a lane's, through its
// own view, which is -1 for it: the one sanctioned access is inside
// `if <own view> < 0 { … }` (the resolver's shape). The engine's
// sequential entry points carry no marker and touch it freely.
//
// Rules, with ctx the enclosing function's declared context:
//
//   - lane state touched with ctx == none        → finding
//   - X.lanes[i] or X.lanes as a whole when ctx == affine
//     and i is not the context's own lane        → finding
//   - the global segment touched when ctx == affine
//     outside an own-view-is-negative guard      → finding
//   - lane-affine callee invoked with ctx == none → finding
//   - lane-affine callee invoked from affine ctx
//     with a non-own-lane lane argument          → finding
//   - lane-seal callee invoked from affine ctx   → finding
//
// Test files are exempt: tests drive the pipeline phases sequentially
// by construction, which is the one context where cross-lane access is
// the point. ζS segment affinity is enforced dynamically by
// TestShardedEquivalence, not here — the segments are reached through
// interned dense indices the checker cannot resolve statically.
type laneAffinityChecker struct{}

func (laneAffinityChecker) Name() string { return "laneaffinity" }

type laneCtx int

const (
	laneCtxNone laneCtx = iota
	laneCtxAffine
	laneCtxSeal
)

const (
	laneAffineMarker = "//seve:lane-affine"
	laneSealMarker   = "//seve:lane-seal"
)

func (laneAffinityChecker) Check(u *Unit, report func(pos token.Pos, format string, args ...any)) {
	w := &laneWalker{u: u, report: report, marks: collectLaneMarks(u)}
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctx := laneCtxNone
			if obj := u.Info.Defs[fd.Name]; obj != nil {
				ctx = w.marks[obj]
			}
			own := laneParams(u.Info, fd.Type)
			if ctx == laneCtxNone && hasLaneParam(u.Info, fd.Type) {
				ctx = laneCtxAffine
			}
			w.walkBody(fd.Body, ctx, own, false)
		}
	}
}

// collectLaneMarks gathers //seve:lane-affine and //seve:lane-seal
// function annotations from the unit and every loaded dependency.
func collectLaneMarks(u *Unit) map[types.Object]laneCtx {
	marks := make(map[types.Object]laneCtx)
	scan := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					var ctx laneCtx
					switch {
					case strings.HasPrefix(c.Text, laneAffineMarker):
						ctx = laneCtxAffine
					case strings.HasPrefix(c.Text, laneSealMarker):
						ctx = laneCtxSeal
					default:
						continue
					}
					if obj := info.Defs[fd.Name]; obj != nil {
						marks[obj] = ctx
					}
				}
			}
		}
	}
	scan(u.Files, u.Info)
	u.Loader.EachLoaded(scan)
	return marks
}

// laneParams returns the parameter objects named "lane", "w" or "view"
// of integer kind — the identifiers an affine body may index lanes with.
func laneParams(info *types.Info, ft *ast.FuncType) map[types.Object]bool {
	own := make(map[types.Object]bool)
	if ft.Params == nil {
		return own
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if !laneParamName(name.Name) {
				continue
			}
			if obj := info.Defs[name]; obj != nil && isIntKind(obj.Type()) {
				own[obj] = true
			}
		}
	}
	return own
}

// laneParamName reports whether a parameter of this name carries a lane:
// "lane", a worker index "w" (worker w serves lane w), or a "view" (a
// lane, or -1 for the global segment).
func laneParamName(name string) bool {
	return name == "lane" || name == "w" || name == "view"
}

func hasLaneParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name == "lane" {
				if obj := info.Defs[name]; obj != nil && isIntKind(obj.Type()) {
					return true
				}
			}
		}
	}
	return false
}

func isIntKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

type laneWalker struct {
	u      *Unit
	report func(pos token.Pos, format string, args ...any)
	marks  map[types.Object]laneCtx
}

func ctxName(c laneCtx) string {
	switch c {
	case laneCtxAffine:
		return "lane-affine"
	case laneCtxSeal:
		return "lane-seal"
	}
	return "unannotated"
}

// walkBody traverses one function body under a fixed context. Nested
// literals with their own "lane int" parameter become affine scopes;
// other literals inherit the context and its own-lane identifiers
// (a closure capturing the worker's lane variable stays own-lane).
// globalOK is set inside an own-view-is-negative guard, where an affine
// context may touch the global segment.
func (w *laneWalker) walkBody(body ast.Node, ctx laneCtx, own map[types.Object]bool, globalOK bool) {
	consumed := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nctx, nown := ctx, own
			if hasLaneParam(w.u.Info, n.Type) {
				nctx, nown = laneCtxAffine, laneParams(w.u.Info, n.Type)
			}
			w.walkBody(n.Body, nctx, nown, globalOK)
			return false
		case *ast.IfStmt:
			if ctx == laneCtxAffine && n.Init == nil && ownViewNegative(w.u.Info, n.Cond, own) {
				w.walkBody(n.Body, ctx, own, true)
				if n.Else != nil {
					w.walkBody(n.Else, ctx, own, globalOK)
				}
				return false
			}
		case *ast.IndexExpr:
			if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok && w.isLaneSlice(sel) {
				consumed[sel] = true
				switch ctx {
				case laneCtxNone:
					w.report(n.Pos(), "lane segment %s indexed outside a lane worker or seal pass", laneStateName(sel))
				case laneCtxAffine:
					if !ownLaneExpr(w.u.Info, n.Index, own) {
						w.report(n.Pos(), "cross-lane access: %s[%s] from a lane-affine context; only the own lane may be touched",
							laneStateName(sel), exprText(n.Index))
					}
				}
			}
		case *ast.SelectorExpr:
			if consumed[n] {
				return true
			}
			switch {
			case w.isLaneSlice(n):
				switch ctx {
				case laneCtxNone:
					w.report(n.Pos(), "lane segments %s touched outside a lane worker or seal pass", laneStateName(n))
				case laneCtxAffine:
					w.report(n.Pos(), "whole-slice access to %s from a lane-affine context; ranging or reallocating lane segments is a seal-pass operation",
						laneStateName(n))
				}
			case ctx == laneCtxAffine && !globalOK && w.isGlobalSegment(n):
				w.report(n.Pos(), "global segment %s reached from a lane-affine context; it is seal-pass state, reachable only as the context's own view when that is negative",
					laneStateName(n))
				return false // one finding per access path
			}
		case *ast.CallExpr:
			w.checkCall(n, ctx, own)
		}
		return true
	})
}

// segmentTypeName is the engine's queue-segment type: the element of
// the lanes slice and the embedded global segment.
const segmentTypeName = "segment"

func isSegmentType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == segmentTypeName
}

// isLaneSlice reports whether sel denotes a field named "lanes" whose
// type is a slice of the named type segment — the matcher that keeps
// the router's own []pendingSub buffers (also a field named lanes) out
// of scope.
func (w *laneWalker) isLaneSlice(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "lanes" {
		return false
	}
	t := w.u.Info.TypeOf(sel)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isSegmentType(sl.Elem())
}

// isGlobalSegment reports whether sel selects the embedded global
// segment of its receiver, or a field or method promoted through it.
// A selection on a segment value itself (a local resolved through the
// own view) has no embedded hop and does not match.
func (w *laneWalker) isGlobalSegment(sel *ast.SelectorExpr) bool {
	s := w.u.Info.Selections[sel]
	if s == nil || (len(s.Index()) == 1 && s.Kind() != types.FieldVal) {
		return false // not a selection, or a method of the receiver itself
	}
	recv := s.Recv()
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	f := st.Field(s.Index()[0])
	return f.Embedded() && isSegmentType(f.Type())
}

// ownViewNegative matches the guard `<own lane expr> < 0`: the context's
// own view is the global segment.
func ownViewNegative(info *types.Info, cond ast.Expr, own map[types.Object]bool) bool {
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.LSS || !ownLaneExpr(info, b.X, own) {
		return false
	}
	lit, ok := unparen(b.Y).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// checkCall applies the context rules to calls of annotated functions.
func (w *laneWalker) checkCall(call *ast.CallExpr, ctx laneCtx, own map[types.Object]bool) {
	fn := calleeFunc(w.u.Info, call)
	if fn == nil {
		return
	}
	kind, marked := w.marks[fn]
	if !marked {
		if sigHasLaneParam(fn) {
			kind = laneCtxAffine
		} else {
			return
		}
	}
	switch kind {
	case laneCtxSeal:
		if ctx == laneCtxAffine {
			w.report(call.Pos(), "seal-pass function %s called from a lane-affine context; merge passes run sequentially between phases", fn.Name())
		}
	case laneCtxAffine:
		switch ctx {
		case laneCtxNone:
			w.report(call.Pos(), "lane-affine function %s called outside a lane worker or seal pass", fn.Name())
		case laneCtxAffine:
			w.checkLaneArgs(call, fn, own)
		}
	}
}

// checkLaneArgs verifies that every lane-valued argument handed from
// one affine context to another is the caller's own lane.
func (w *laneWalker) checkLaneArgs(call *ast.CallExpr, fn *types.Func, own map[types.Object]bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() && len(call.Args) != sig.Params().Len() {
		return
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		p := sig.Params().At(i)
		if !laneParamName(p.Name()) || !isIntKind(p.Type()) {
			continue
		}
		if !ownLaneExpr(w.u.Info, call.Args[i], own) {
			w.report(call.Args[i].Pos(), "cross-lane call: %s given lane %s from a lane-affine context; only the own lane may be passed",
				fn.Name(), exprText(call.Args[i]))
		}
	}
}

// calleeFunc resolves a call to its *types.Func, for both plain and
// method calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// sigHasLaneParam applies the implicit-affine rule at the callee side:
// a function whose signature declares an int parameter named "lane" is
// affine even without a marker.
func sigHasLaneParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if p.Name() == "lane" && isIntKind(p.Type()) {
			return true
		}
	}
	return false
}

// ownLaneExpr reports whether e is the context's own lane: one of the
// context's lane/w parameters, or a selector ending in .lane or
// .viewLane (the owner-lane fields staged on entries and pendings).
func ownLaneExpr(info *types.Info, e ast.Expr, own map[types.Object]bool) bool {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil && own[obj] {
			return true
		}
	case *ast.SelectorExpr:
		return e.Sel.Name == "lane" || e.Sel.Name == "viewLane"
	case *ast.CallExpr:
		// int(p.lane)-style conversions keep their own-lane quality.
		if len(e.Args) == 1 {
			if _, isConv := info.Types[e.Fun]; isConv && info.Types[e.Fun].IsType() {
				return ownLaneExpr(info, e.Args[0], own)
			}
		}
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// lockPath renders the mutex receiver of a Lock/Unlock call as a stable
// identifier path, or "" when the receiver is not a plain ident chain.
func lockPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := lockPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return lockPath(e.X)
	}
	return ""
}

// laneStateName renders the touched selector for the finding message.
func laneStateName(sel *ast.SelectorExpr) string {
	if base := lockPath(sel.X); base != "" {
		return base + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

// exprText renders a short expression for a finding message.
func exprText(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return laneStateName(e)
	case *ast.BasicLit:
		return e.Value
	}
	return "<expr>"
}
