package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// rwsetChecker turns the strict-mode runtime access check
// (action.CheckAccess) into a compile-time gate: inside an action's
// Apply/Eval body, every object id passed to Tx.Read must be traceable
// to the receiver's declared ReadSet(), and every id passed to Tx.Write
// to its WriteSet().
//
// "Traceable" is a conservative intra-procedural dataflow:
//
//   - Source expressions are collected from the ReadSet/WriteSet method
//     bodies themselves: every sub-expression of object-id shape
//     (world.ObjectID, world.IDSet, []world.ObjectID, world.Write,
//     []world.Write), rendered with the receiver normalized, plus the
//     cross-references ReadSet→WriteSet and WriteSet→ReadSet (the
//     paper's convention WS(a) ⊆ RS(a) makes write-set sources valid
//     read sources).
//   - Inside Apply, a value is derived if it is a source expression, a
//     variable assigned from a derived value (any reaching assignment
//     counts — the analysis is optimistic, never flagging a value that
//     could be in-set), an element of a derived collection (range,
//     index, field selection), a call to the receiver's own
//     ReadSet/WriteSet, or world.NewIDSet over derived ids.
//   - Arithmetic is never derived: `a.Target+1000` names a different
//     object than the declared one, which is exactly the bug class
//     strict mode exists to catch.
//
// Audited escapes use `//seve:vet-ignore rwset <reason>`.
type rwsetChecker struct{}

func (rwsetChecker) Name() string { return "rwset" }

const (
	bitRS uint8 = 1 << iota
	bitWS
)

// worldPath matches the world package inside this module.
func isWorldType(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/world")
}

// isTxPtr reports whether t is *world.Tx.
func isTxPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isWorldType(p.Elem(), "Tx")
}

// idShaped reports whether a value of type t carries object identity:
// an id, a set of ids, or write records (which embed ids). A set may be
// a slice or a fixed-size array (an action whose write set is one object
// can hold it inline and return a slice of it).
func idShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	if isWorldType(t, "ObjectID") || isWorldType(t, "IDSet") || isWorldType(t, "Write") {
		return true
	}
	var elem types.Type
	switch c := t.Underlying().(type) {
	case *types.Slice:
		elem = c.Elem()
	case *types.Array:
		elem = c.Elem()
	default:
		return false
	}
	return isWorldType(elem, "ObjectID") || isWorldType(elem, "Write")
}

// declSite locates a method's declaration and the type info covering it.
type declSite struct {
	fd   *ast.FuncDecl
	info *types.Info
}

// declIndex maps method name positions to their declarations across the
// unit and every loaded dependency package.
func buildDeclIndex(u *Unit) map[token.Pos]declSite {
	idx := make(map[token.Pos]declSite)
	add := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					idx[fd.Name.Pos()] = declSite{fd: fd, info: info}
				}
			}
		}
	}
	add(u.Files, u.Info)
	u.Loader.EachLoaded(add)
	return idx
}

func (rwsetChecker) Check(u *Unit, report func(pos token.Pos, format string, args ...any)) {
	idx := buildDeclIndex(u)
	funcBodies(u, func(fd *ast.FuncDecl) {
		if fd.Recv == nil || (fd.Name.Name != "Apply" && fd.Name.Name != "Eval") {
			return
		}
		sig, ok := u.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			return
		}
		st := sig.Type().(*types.Signature)
		if st.Params().Len() != 1 || !isTxPtr(st.Params().At(0).Type()) {
			return
		}
		recvT := st.Recv().Type()
		if p, ok := recvT.(*types.Pointer); ok {
			recvT = p.Elem()
		}
		named, ok := recvT.(*types.Named)
		if !ok {
			return
		}
		sources := collectSetSources(named, idx)
		if sources == nil {
			return // set methods not analyzable (e.g. interface-backed)
		}
		checkApply(u, fd, st, sources, report)
	})
}

// setSources is the traceability root set: normalized expression strings
// with the set bits they grant.
type setSources map[string]uint8

// collectSetSources gathers source expressions from the declared
// ReadSet/WriteSet methods of *named. Returns nil when either method's
// body cannot be found (the type is not a concrete in-module action).
func collectSetSources(named *types.Named, idx map[token.Pos]declSite) setSources {
	ms := types.NewMethodSet(types.NewPointer(named))
	sources := make(setSources)
	var crossRS, crossWS bool // ReadSet()→WriteSet() / WriteSet()→ReadSet()
	var rsList, wsList []string
	for _, spec := range []struct {
		method string
		bit    uint8
	}{{"ReadSet", bitRS}, {"WriteSet", bitWS}} {
		sel := ms.Lookup(nil, spec.method)
		if sel == nil {
			return nil
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			return nil
		}
		site, ok := idx[fn.Pos()]
		if !ok {
			return nil
		}
		recvName := receiverName(site.fd)
		ast.Inspect(site.fd.Body, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if call, ok := e.(*ast.CallExpr); ok {
				if m, isRecv := receiverMethodName(call, recvName); isRecv {
					if spec.method == "ReadSet" && m == "WriteSet" {
						crossRS = true
					}
					if spec.method == "WriteSet" && m == "ReadSet" {
						crossWS = true
					}
				}
			}
			if idShaped(site.info.TypeOf(e)) {
				s := normExpr(e, recvName)
				sources[s] |= spec.bit
				if spec.bit == bitRS {
					rsList = append(rsList, s)
				} else {
					wsList = append(wsList, s)
				}
			}
			return true
		})
	}
	if crossRS {
		for _, s := range wsList {
			sources[s] |= bitRS
		}
	}
	if crossWS {
		for _, s := range rsList {
			sources[s] |= bitWS
		}
	}
	// WS(a) ⊆ RS(a): anything declared writable is readable.
	for s, b := range sources {
		if b&bitWS != 0 {
			sources[s] |= bitRS
		}
	}
	return sources
}

// receiverName returns the receiver ident of a method declaration, or "".
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// receiverMethodName unwraps calls of the form recv.M(...), returning M.
func receiverMethodName(call *ast.CallExpr, recvName string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != recvName || recvName == "" {
		return "", false
	}
	return sel.Sel.Name, true
}

// normExpr renders an expression with the receiver ident replaced by
// "·", so source expressions match across methods whose receivers are
// named differently.
func normExpr(e ast.Expr, recvName string) string {
	switch e := e.(type) {
	case *ast.Ident:
		if recvName != "" && e.Name == recvName {
			return "·"
		}
		return e.Name
	case *ast.SelectorExpr:
		return normExpr(e.X, recvName) + "." + e.Sel.Name
	case *ast.CallExpr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = normExpr(a, recvName)
		}
		ell := ""
		if e.Ellipsis.IsValid() {
			ell = "..."
		}
		return normExpr(e.Fun, recvName) + "(" + strings.Join(parts, ",") + ell + ")"
	case *ast.BasicLit:
		return e.Value
	case *ast.IndexExpr:
		return normExpr(e.X, recvName) + "[" + normExpr(e.Index, recvName) + "]"
	case *ast.ParenExpr:
		return normExpr(e.X, recvName)
	case *ast.UnaryExpr:
		return e.Op.String() + normExpr(e.X, recvName)
	case *ast.BinaryExpr:
		return normExpr(e.X, recvName) + e.Op.String() + normExpr(e.Y, recvName)
	case *ast.StarExpr:
		return "*" + normExpr(e.X, recvName)
	default:
		return fmt.Sprintf("?%T", e)
	}
}

// applyScope is the per-Apply dataflow state.
type applyScope struct {
	u        *Unit
	recvName string
	sources  setSources
	txObj    types.Object
	flags    map[types.Object]uint8
}

// checkApply runs the derivation fixpoint over one Apply/Eval body and
// reports untraceable Tx accesses.
func checkApply(u *Unit, fd *ast.FuncDecl, sig *types.Signature, sources setSources, report func(pos token.Pos, format string, args ...any)) {
	sc := &applyScope{
		u:        u,
		recvName: receiverName(fd),
		sources:  sources,
		flags:    make(map[types.Object]uint8),
	}
	// The Tx parameter object: resolve via the declaration ident so
	// shadowing in nested scopes cannot confuse the access scan.
	if len(fd.Type.Params.List) > 0 && len(fd.Type.Params.List[0].Names) > 0 {
		sc.txObj = u.Info.Defs[fd.Type.Params.List[0].Names[0]]
	}
	if sc.txObj == nil {
		return
	}

	// Optimistic fixpoint: a variable is derived if any assignment into
	// it is derived. Bounded by the bit lattice (two bits per var).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := sc.u.Info.Defs[id]
					if obj == nil {
						obj = sc.u.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if b := sc.derive(n.Rhs[i]); b&^sc.flags[obj] != 0 {
						sc.flags[obj] |= b
						changed = true
					}
				}
			case *ast.RangeStmt:
				b := sc.derive(n.X)
				if b == 0 {
					return true
				}
				target := n.Value
				if t := sc.u.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						target = n.Key // ids as map keys
					}
				}
				if id, ok := target.(*ast.Ident); ok {
					if obj := sc.u.Info.Defs[id]; obj != nil && b&^sc.flags[obj] != 0 {
						sc.flags[obj] |= b
						changed = true
					}
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || sc.u.Info.Uses[id] != sc.txObj {
			return true
		}
		switch sel.Sel.Name {
		case "Read":
			if len(call.Args) == 1 && sc.derive(call.Args[0])&bitRS == 0 {
				report(call.Args[0].Pos(),
					"%s reads object id %q not traceable to the declared ReadSet",
					fd.Name.Name, normExpr(call.Args[0], sc.recvName))
			}
		case "Write":
			if len(call.Args) >= 1 && sc.derive(call.Args[0])&bitWS == 0 {
				report(call.Args[0].Pos(),
					"%s writes object id %q not traceable to the declared WriteSet",
					fd.Name.Name, normExpr(call.Args[0], sc.recvName))
			}
		}
		return true
	})
}

// derive computes the RS/WS bits of an expression.
func (sc *applyScope) derive(e ast.Expr) uint8 {
	if b, ok := sc.sources[normExpr(e, sc.recvName)]; ok && b != 0 {
		return b
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := sc.u.Info.Uses[e]
		if obj == nil {
			obj = sc.u.Info.Defs[e]
		}
		return sc.flags[obj]
	case *ast.SelectorExpr:
		// A field of a derived record (w.ID with w ranging a derived
		// []world.Write) is derived.
		return sc.derive(e.X)
	case *ast.IndexExpr:
		return sc.derive(e.X)
	case *ast.SliceExpr:
		return sc.derive(e.X)
	case *ast.ParenExpr:
		return sc.derive(e.X)
	case *ast.StarExpr:
		return sc.derive(e.X)
	case *ast.UnaryExpr:
		return sc.derive(e.X)
	case *ast.CallExpr:
		// Conversions pass bits through: world.ObjectID(x) names the
		// same object as x.
		if tv, ok := sc.u.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return sc.derive(e.Args[0])
		}
		if m, isRecv := receiverMethodName(e, sc.recvName); isRecv {
			switch m {
			case "ReadSet":
				return bitRS
			case "WriteSet":
				return bitRS | bitWS
			}
		}
		// world.NewIDSet(derived ids...) stays derived: the set holds
		// exactly the ids passed in.
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewIDSet" {
			bits := bitRS | bitWS
			for _, a := range e.Args {
				bits &= sc.derive(a)
			}
			return bits
		}
		return 0
	default:
		return 0
	}
}
