package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deliveryClassChecker keeps supersession metadata explicit (DESIGN.md
// §13): the zero value of core.Delivery is DeliveryOrdered, so an
// untagged core.Reply silently opts its frame out of supersession and
// into the unbounded control-flow queue. A keyed core.Reply composite
// literal with elements but no Deliver key is a finding. Positional
// literals necessarily spell out every field and empty literals are
// zero-value sentinels; both pass.
//
// What the queue then does with a class — Ordered frames never shed,
// only Batch frames merged — is one Enqueue ladder's behaviour and is
// held by transport.TestSendQueueOrderedNeverShed, not here.
//
// Test files are exempt: tests construct bare replies for assertions.
type deliveryClassChecker struct{}

func (deliveryClassChecker) Name() string { return "deliveryclass" }

func (deliveryClassChecker) Check(u *Unit, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := u.Info.TypeOf(lit)
			if t == nil || !isModType(t, "internal/core", "Reply") || len(lit.Elts) == 0 {
				return true
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					return true // positional: every field, Deliver included
				}
				if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Deliver" {
					return true
				}
			}
			report(lit.Pos(), "core.Reply literal without Deliver metadata; the zero class is DeliveryOrdered — spell the delivery class out")
			return true
		})
	}
}

// isModType reports whether t is the named type pkgSuffix.name inside
// this module.
func isModType(t types.Type, pkgSuffix, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}
