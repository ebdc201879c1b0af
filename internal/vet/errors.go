package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"mbplib/internal/vet/driver"
)

// Rule V3 — dropped errors: in the trace codec and simulator packages, an
// error result must never be silently discarded. The SBBT and BT9 readers
// signal mid-record EOF through bp.ErrTruncated; a discarded error on that
// path turns a corrupt trace into a silently shortened simulation, which is
// the worst possible failure mode for an experiment.
//
// Two patterns are exempt on principle: fmt.Fprint/Fprintf/Fprintln into a
// *bufio.Writer, bytes.Buffer or strings.Builder — their write errors are
// sticky (bufio) or impossible (in-memory buffers), and the codecs check
// the buffered writer's Flush, where a sticky error surfaces — and direct
// Write* method calls on a bytes.Buffer or strings.Builder receiver, whose
// error results are documented to always be nil.
func droppedErrorFindings(files []*ast.File, info *types.Info) []driver.Diagnostic {
	var findings []driver.Diagnostic
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					findings = append(findings, discardedCall(info, call, "result of %s discarded")...)
				}
			case *ast.DeferStmt:
				findings = append(findings, discardedCall(info, n.Call, "deferred %s discards its error")...)
			case *ast.GoStmt:
				findings = append(findings, discardedCall(info, n.Call, "go %s discards its error")...)
			case *ast.AssignStmt:
				findings = append(findings, blankError(info, n)...)
			}
			return true
		})
	}
	return findings
}

// discardedCall flags a call statement whose last result is an error.
func discardedCall(info *types.Info, call *ast.CallExpr, format string) []driver.Diagnostic {
	tv, ok := info.Types[call]
	if !ok || !lastResultIsError(tv.Type) {
		return nil
	}
	if isExemptPrinter(info, call) || isInMemoryWrite(info, call) {
		return nil
	}
	return []driver.Diagnostic{{
		Pos:      call.Pos(),
		Category: RuleDroppedErr,
		Message:  fmt.Sprintf(format+" — handle it or annotate with //mbpvet:ignore %s", callName(call), RuleDroppedErr),
	}}
}

// blankError flags `_` in the position of an error result, including the
// explicit `_ = f()` discard.
func blankError(info *types.Info, n *ast.AssignStmt) []driver.Diagnostic {
	var findings []driver.Diagnostic
	flag := func(pos ast.Node, what string) {
		findings = append(findings, driver.Diagnostic{
			Pos:      pos.Pos(),
			Category: RuleDroppedErr,
			Message:  fmt.Sprintf("error result of %s assigned to _ — handle it or annotate with //mbpvet:ignore %s", what, RuleDroppedErr),
		})
	}
	// Multi-value form: x, _ := f().
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		call, ok := n.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil
		}
		tuple, ok := info.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(n.Lhs) {
			return nil
		}
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && isErrorType(tuple.At(i).Type()) {
				if !isExemptPrinter(info, call) && !isInMemoryWrite(info, call) {
					flag(n, callName(call))
				}
			}
		}
		return findings
	}
	// Parallel form: _ = f(), possibly mixed into a multi-assign.
	for i, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || i >= len(n.Rhs) {
			continue
		}
		if tv, ok := info.Types[n.Rhs[i]]; ok && isErrorType(tv.Type) {
			flag(n, "expression")
		}
	}
	return findings
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error" && types.IsInterface(t)
}

func lastResultIsError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		return tuple.Len() > 0 && isErrorType(tuple.At(tuple.Len()-1).Type())
	}
	return isErrorType(t)
}

// isExemptPrinter reports whether call is fmt.Fprint{,f,ln} writing into a
// sticky-error or in-memory writer.
func isExemptPrinter(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if obj, ok := info.Uses[id].(*types.PkgName); !ok || obj.Imported().Path() != "fmt" {
		return false
	}
	if !strings.HasPrefix(sel.Sel.Name, "Fprint") {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	return interfaceNamed(tv.Type, "bufio", "Writer") ||
		interfaceNamed(tv.Type, "bytes", "Buffer") ||
		interfaceNamed(tv.Type, "strings", "Builder")
}

// isInMemoryWrite reports whether call is one of the self-contained write
// methods on a bytes.Buffer or strings.Builder receiver. Their error results
// are documented to always be nil (growing the buffer panics on overflow
// instead), so a discarded error there carries no information. WriteTo is
// deliberately not in the set: it writes to an external io.Writer and its
// error is real.
func isInMemoryWrite(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	return interfaceNamed(tv.Type, "bytes", "Buffer") ||
		interfaceNamed(tv.Type, "strings", "Builder")
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
