package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockscopeChecker flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held (DESIGN.md §9). The transport
// layer's locks guard in-memory maps and counters; holding one across a
// channel operation, a network write, or a pooled encode loop turns a
// per-connection stall into a server-wide convoy — PR 7 shipped exactly
// this bug in dispatchReplies, fanning out encodes under s.mu.
//
// The analysis is an intra-procedural abstract interpretation over the
// statement tree. The abstract domain maps lock expressions — identifier
// paths like s.mu or c.mu — to a held-state {locked, rlocked}.
// X.Lock()/RLock() enter the state, X.Unlock()/RUnlock() leave it, defer
// X.Unlock() pins it to function end. Branch merge is held-if-any-path: a lock held on either arm of
// an if is treated as held after the join, which biases toward
// reporting exactly the convoy-prone paths. Function literals start
// from an empty lock set (a goroutine or deferred closure does not
// inherit the caller's critical section); taking a lock inside a
// closure is analyzed as that closure's own region.
//
// Blocking sinks while any lock is held:
//   - channel send and receive (select with a default is non-blocking
//     and exempt; a select without one blocks as a whole)
//   - ranging over a channel
//   - sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep
//   - net.Conn Read/Write/Close and anything with a net package path
//   - wire.ReadFrame / wire.WriteFrame (frame I/O on a live conn)
//   - re-locking a mutex already held on this path (self-deadlock)
type lockscopeChecker struct{}

func (lockscopeChecker) Name() string { return "lockscope" }

func (lockscopeChecker) Check(u *Unit, report func(pos token.Pos, format string, args ...any)) {
	a := &lockAnalyzer{u: u, report: report}
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

// lockMode is the abstract held-state of one mutex path.
type lockMode int

const (
	lockHeld lockMode = iota + 1
	lockRHeld
)

// lockState maps a mutex's identifier path (e.g. "s.mu") to its mode.
// Paths, not objects: the receiver s and the field mu are distinct
// objects per function, but the path is stable within one body, which
// is all an intra-procedural region needs.
type lockState struct {
	held map[string]lockMode
}

func newLockState() *lockState { return &lockState{held: make(map[string]lockMode)} }

func (st *lockState) clone() *lockState {
	c := &lockState{held: make(map[string]lockMode, len(st.held))}
	for k, v := range st.held {
		c.held[k] = v
	}
	return c
}

// mergeLockStates joins surviving branches held-biased: a lock held on
// either path stays held after the join.
func mergeLockStates(a, b *lockState) *lockState {
	out := a.clone()
	for k, v := range b.held {
		if cur, ok := out.held[k]; !ok || v == lockHeld && cur == lockRHeld {
			out.held[k] = v
		}
	}
	return out
}

type lockAnalyzer struct {
	u      *Unit
	report func(pos token.Pos, format string, args ...any)
}

func (a *lockAnalyzer) run(body *ast.BlockStmt) {
	a.block(newLockState(), body.List)
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

// syncLockCall matches X.M() where M is a sync.Mutex/RWMutex lock
// method, returning the method name and X's path.
func syncLockCall(info *types.Info, call *ast.CallExpr) (method, path string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return "", ""
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		n, ok := rt.(*types.Named)
		if !ok {
			return "", ""
		}
		switch n.Obj().Name() {
		case "Mutex", "RWMutex":
			return fn.Name(), lockPath(sel.X)
		}
	}
	return "", ""
}

// anyHeld returns a held lock's path for the finding message, or "".
// Deterministic: the lexically smallest path wins so repeated runs
// produce identical messages.
func (st *lockState) anyHeld() string {
	best := ""
	for k := range st.held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// blockingCall classifies a call that can block indefinitely: frame I/O,
// net.Conn methods, and the sync/time waiting family. Pure in-memory
// work (map access, append, encode-into-buffer) is not here — holding a
// lock for CPU work is a throughput question, not a convoy.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	name, pkg := calleeIn(info, call)
	if strings.HasSuffix(pkg, "internal/wire") && (name == "ReadFrame" || name == "WriteFrame") {
		return "wire." + name
	}
	switch pkg {
	case "net":
		return "net." + name
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if name == "Wait" {
			return "sync " + name
		}
	}
	// Read/Write/Close on a net.Conn-typed receiver (the interface
	// methods resolve to package net at the call site only for concrete
	// types; the interface case lands here).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if t := info.TypeOf(sel.X); t != nil && isNetConn(t) {
			switch sel.Sel.Name {
			case "Read", "Write", "Close", "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				return "net.Conn." + sel.Sel.Name
			}
		}
	}
	return ""
}

// calleeIn resolves a call to its function name and defining package.
func calleeIn(info *types.Info, call *ast.CallExpr) (name, pkg string) {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return "", ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Name(), fn.Pkg().Path()
}

// isTerminalCall recognizes calls that never return: panic, os.Exit,
// runtime.Goexit, and the testing.TB Fatal/Skip family (matched by
// name). Control does not fall past them, so a lock held there is not
// held after.
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

// isNetConn reports whether t is net.Conn or a type from package net.
func isNetConn(t types.Type) bool {
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "net" {
			return true
		}
	}
	if p, ok := t.(*types.Pointer); ok {
		return isNetConn(p.Elem())
	}
	return false
}

func (a *lockAnalyzer) reportBlocked(st *lockState, pos token.Pos, what string) {
	if held := st.anyHeld(); held != "" {
		a.report(pos, "%s while %s is held; release the lock before blocking", what, held)
	}
}

func (a *lockAnalyzer) block(st *lockState, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if a.stmt(st, s) {
			return true
		}
	}
	return false
}

func (a *lockAnalyzer) stmt(st *lockState, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return a.stmtExpr(st, s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			a.expr(st, r)
		}
		for _, l := range s.Lhs {
			a.expr(st, l)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						a.expr(st, val)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.expr(st, r)
		}
		return true
	case *ast.DeferStmt:
		// defer X.Unlock() keeps the region open to function end — the
		// canonical pattern; everything after it runs under the lock.
		// Any other deferred call runs after the region closes.
		if m, path := syncLockCall(a.u.Info, s.Call); path != "" {
			switch m {
			case "Unlock", "RUnlock":
				return false // region persists; sinks below still report
			case "Lock", "RLock":
				return false // deferred lock: outside any region we model
			}
		}
		a.expr(st, s.Call.Fun)
		for _, arg := range s.Call.Args {
			a.expr(st, arg)
		}
	case *ast.GoStmt:
		// The goroutine body runs on its own schedule with no inherited
		// locks; spawning it does not block.
		a.expr(st, s.Call.Fun)
		for _, arg := range s.Call.Args {
			a.expr(st, arg)
		}
	case *ast.SendStmt:
		a.expr(st, s.Chan)
		a.expr(st, s.Value)
		a.reportBlocked(st, s.Arrow, "channel send")
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
			*st = *mergeLockStates(thenSt, elseSt)
		}
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
			*st = *mergeLockStates(st, bodySt)
		}
	case *ast.RangeStmt:
		if t := a.u.Info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				a.reportBlocked(st, s.For, "range over channel")
			}
		}
		a.expr(st, s.X)
		bodySt := st.clone()
		if !a.block(bodySt, s.Body.List) {
			*st = *mergeLockStates(st, bodySt)
		}
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
		// A select with a default never blocks; without one it parks the
		// goroutine until some case is ready, which is the blocking event
		// — individual comm ops inside the clauses are not re-flagged.
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			a.reportBlocked(st, s.Select, "select without default")
		}
		return a.clauses(st, s, s.Body.List)
	case *ast.BlockStmt:
		return a.block(st, s.List)
	case *ast.LabeledStmt:
		return a.stmt(st, s.Stmt)
	case *ast.BranchStmt:
		return true
	}
	return false
}

// clauses walks switch/select bodies: clone per clause, merge
// survivors. Comm-clause channel ops are evaluated for nested
// expressions only — the enclosing select already reported the block.
func (a *lockAnalyzer) clauses(st *lockState, parent ast.Node, list []ast.Stmt) bool {
	var survivors []*lockState
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
		merged = mergeLockStates(merged, s)
	}
	*st = *merged
	return false
}

// stmtExpr handles expression statements, where Lock/Unlock calls
// mutate the region state and blocking calls are sinks.
func (a *lockAnalyzer) stmtExpr(st *lockState, e ast.Expr) bool {
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
	if m, path := syncLockCall(a.u.Info, call); path != "" {
		switch m {
		case "Lock":
			if st.held[path] != 0 {
				a.report(call.Pos(), "%s.Lock while %s is already held on this path (self-deadlock)", path, path)
			}
			st.held[path] = lockHeld
		case "RLock":
			if st.held[path] == lockHeld {
				a.report(call.Pos(), "%s.RLock while %s is write-held on this path (self-deadlock)", path, path)
			}
			st.held[path] = lockRHeld
		case "Unlock", "RUnlock":
			delete(st.held, path)
		}
		return false
	}
	a.expr(st, e)
	return false
}

// expr reports blocking sub-expressions: channel receives and blocking
// calls in value position.
func (a *lockAnalyzer) expr(st *lockState, e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			a.reportBlocked(st, e.OpPos, "channel receive")
		}
		a.expr(st, e.X)
	case *ast.FuncLit:
		// Analyzed separately with an empty lock set by Check.
	case *ast.CallExpr:
		if what := blockingCall(a.u.Info, e); what != "" {
			a.reportBlocked(st, e.Pos(), what)
		}
		// TryLock in condition position still opens a region on the
		// true path; modeled conservatively as not held (the checker
		// has no value tracking for the bool), noted in DESIGN.md §9.
		a.expr(st, e.Fun)
		for _, arg := range e.Args {
			a.expr(st, arg)
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
	case *ast.BinaryExpr:
		a.expr(st, e.X)
		a.expr(st, e.Y)
	case *ast.ParenExpr:
		a.expr(st, e.X)
	case *ast.TypeAssertExpr:
		a.expr(st, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			a.expr(st, el)
		}
	case *ast.KeyValueExpr:
		a.expr(st, e.Value)
	}
}
