package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detorderChecker guards the engine's byte-identity invariant: the
// output stream of a tick must be identical no matter how the work was
// scheduled (TestTickParallelDeterminism, TestEncodeCacheFanOut). Go
// randomizes map iteration order on purpose, so a `range` over a map
// whose body feeds an order-sensitive sink — wire encoding, serial
// order stamping, reply/envelope emission, or the push planner —
// produces a different byte stream on every run. Such loops must
// collect keys, sort, and iterate the sorted slice instead (the idiom
// used throughout internal/core; see bound.go's client snapshot).
//
// Map ranges whose bodies only collect into an intermediate (to be
// sorted later) touch no sink and stay clean.
type detorderChecker struct{}

func (detorderChecker) Name() string { return "detorder" }

// wireEncodeFuncs are internal/wire entry points that serialize bytes
// in call order.
var wireEncodeFuncs = map[string]bool{
	"Encode": true, "EncodeTo": true, "AppendMsg": true, "AppendFrame": true,
	"WriteFrame": true, "NewFrame": true, "NewFrameCached": true,
	"appendMsgCached": true, "appendEnvelope": true,
}

// pushPlanFuncs are the internal/core planning and sequencing stages
// whose invocation order decides serial order and batch layout.
var pushPlanFuncs = map[string]bool{
	"sequence": true, "commitPlan": true, "batchReply": true, "planPush": true, "commitPush": true,
	"buildPushGrid": true, "pushSeeds": true, "gridSeeds": true, "pushWindow": true,
	"pushGroup": true, "closureShared": true, "closureWalk": true,
}

// mergeFuncs are the submit pipeline's sequential passes
// (core/pipeline.go): the three merges, and SubmitPrepared, the one-job
// epoch that runs all six phases on the global view. Each call stamps
// global Seqs, mints blind-write ids, or emits replies, so invocation
// order IS the merge order (epoch, lane, localSeq). Driving them out of
// map iteration reorders the serial stream run to run. The lane-parallel
// phases (StampLane, CommitLane, PlanReply) are deliberately absent:
// lanes are independent, so their dispatch order is free.
var mergeFuncs = map[string]bool{
	"SealStamp": true, "PreCommit": true, "SealCommit": true, "SubmitPrepared": true,
}

// orderFields are sequence counters: stamping them inside an unordered
// loop assigns serial order nondeterministically.
var orderFields = map[string]bool{
	"Seq": true, "ClientSeq": true, "InstalledUpTo": true,
	"nextBatchSeq": true, "nextActSeq": true, "installed": true,
}

// emitFields are output slices whose element order is the stream order
// seen by clients.
var emitFields = map[string]bool{
	"Replies": true, "Envs": true, "ToPeers": true, "ToServer": true,
}

func (detorderChecker) Check(u *Unit, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := u.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if what := findOrderSink(u, rs.Body); what != "" {
				report(rs.For, "map iteration order feeds %s; collect the keys, sort, then iterate", what)
			}
			return true
		})
	}
}

// findOrderSink scans a loop body for the first order-sensitive effect.
func findOrderSink(u *Unit, body *ast.BlockStmt) string {
	var what string
	ast.Inspect(body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, pkg := calleeIn(u.Info, n); name != "" {
				if strings.HasSuffix(pkg, "internal/wire") && wireEncodeFuncs[name] {
					what = "wire encoding (" + name + ")"
					return false
				}
				if strings.HasSuffix(pkg, "internal/core") && pushPlanFuncs[name] {
					what = "push planning (" + name + ")"
					return false
				}
				if strings.HasSuffix(pkg, "internal/core") && mergeFuncs[name] {
					what = "epoch merge (" + name + ")"
					return false
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if name := fieldName(l); orderFields[name] {
					what = "serial order assignment (" + name + ")"
					return false
				}
				if name := fieldName(l); emitFields[name] {
					what = "output emission (" + name + ")"
					return false
				}
			}
		case *ast.IncDecStmt:
			if name := fieldName(n.X); orderFields[name] {
				what = "serial order assignment (" + name + ")"
				return false
			}
		}
		return true
	})
	return what
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

// fieldName names the field or variable an lvalue writes.
func fieldName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return fieldName(e.X)
	}
	return ""
}
