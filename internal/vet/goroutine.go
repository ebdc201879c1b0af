package vet

import (
	"go/ast"
	"go/token"
	"go/types"

	"mbplib/internal/vet/driver"
)

// Rule V6 — goroutine lifecycle: every `go` statement in the concurrency
// packages must have a provable join or cancel path, so no PR can introduce
// a goroutine that outlives its owner unnoticed. The prefetcher's "Run
// blocks until producer exit" contract is the archetype: the producer
// signals completion by closing a channel, and Run waits for it.
//
// Evidence accepted inside the launched function (or a same-package function
// it calls, transitively):
//
//   - sync.WaitGroup.Done — the owner joins with Wait
//   - close(ch) — the owner joins by receiving until close
//   - a channel send — the owner receives the completion value
//   - a channel receive or range-over-channel — the goroutine itself blocks
//     on a channel the owner controls (including <-ctx.Done())
//
// A goroutine running a function the analyzer cannot see into (another
// package, a stored function value) is reported conservatively. Goroutines
// that are deliberately process-long are declared with
//
//	//mbpvet:goroutine-exempt <justification>
//
// on the go statement's line or the line above.
func goroutineFindings(files []*ast.File, info *types.Info) []driver.Diagnostic {
	decls := make(map[*types.Func]*ast.FuncDecl)
	forEachFuncDecl(files, info, func(obj *types.Func, decl *ast.FuncDecl, recv *types.Var) {
		decls[obj] = decl
	})
	var out []driver.Diagnostic
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineHasLifecycle(info, decls, g.Call) {
				out = append(out, driver.Diagnostic{
					Pos:      g.Pos(),
					Category: RuleGoroutine,
					Message: "go statement has no provable join or cancel path (no WaitGroup.Done, channel close/send/receive, " +
						"or context wait reachable in the goroutine); join it or annotate with //mbpvet:goroutine-exempt <why>",
				})
			}
			return true
		})
	}
	return out
}

// goroutineHasLifecycle resolves the launched function and looks for
// lifecycle evidence in its body.
func goroutineHasLifecycle(info *types.Info, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr) bool {
	visited := make(map[*types.Func]bool)
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return lifecycleEvidence(info, decls, fun.Body, visited)
	default:
		if callee := calleeFunc(info, call); callee != nil {
			if decl, ok := decls[callee]; ok {
				visited[callee] = true
				return lifecycleEvidence(info, decls, decl.Body, visited)
			}
		}
	}
	return false
}

// calleeFunc resolves a call to its static *types.Func, or nil for function
// values and other dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// lifecycleEvidence walks one function body (and same-package callees,
// transitively) for any of the accepted join/cancel signals.
func lifecycleEvidence(info *types.Info, decls map[*types.Func]*ast.FuncDecl, body *ast.BlockStmt, visited map[*types.Func]bool) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // channel receive, including <-ctx.Done()
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
					return false
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if tv, ok := info.Types[sel.X]; ok && interfaceNamed(tv.Type, "sync", "WaitGroup") {
					found = true
					return false
				}
			}
			// Recurse into same-package callees: the evidence may live in a
			// helper the goroutine body delegates to (pf.produce's close).
			if callee := calleeFunc(info, n); callee != nil && !visited[callee] {
				if decl, ok := decls[callee]; ok {
					visited[callee] = true
					if lifecycleEvidence(info, decls, decl.Body, visited) {
						found = true
						return false
					}
				}
			}
		}
		return !found
	})
	return found
}
