package vet

import (
	"go/ast"
	"go/types"

	"mbplib/internal/vet/driver"
)

// Rule V5 — panicfree: the trace codec packages decode untrusted bytes, so
// a reachable panic is a denial-of-service primitive — one malformed trace
// in a 200-trace sweep kills the whole process. Inside the configured
// packages every call to the panic builtin is reported; hostile input must
// surface as an error classified by the faults taxonomy instead. A panic a
// codec keeps on purpose (an internal invariant no input can reach, e.g. a
// constant-width mask helper) is declared with
//
//	//mbpvet:panicfree-exempt <justification>
//
// on the call's line or the line above. The check resolves the identifier
// through go/types, so a shadowing local function or variable named "panic"
// is not reported.
func panicFreeFindings(files []*ast.File, info *types.Info) []driver.Diagnostic {
	var findings []driver.Diagnostic
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
				return true
			}
			findings = append(findings, driver.Diagnostic{
				Pos:      call.Pos(),
				Category: RulePanicFree,
				Message: "panic in a decode package — untrusted input must fail with a typed error; " +
					"annotate with mbpvet:panicfree-exempt <why> if no input can reach it",
			})
			return true
		})
	}
	return findings
}
