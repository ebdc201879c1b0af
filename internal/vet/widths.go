package vet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/bits"
	"strings"

	"mbplib/internal/vet/driver"
)

// Rule V4 — bit-width hygiene. The SBBT packet format packs 52-bit
// addresses, a 12-bit instruction gap and a 4-bit opcode into two 64-bit
// blocks (§IV-C); BT9 carries the same fields in text. A shift or integer
// conversion on those paths that silently drops high bits corrupts traces
// without any error, so in the codec packages the rule reports:
//
//   - integer conversions to a narrower type whose operand is not masked,
//     shifted, or bounds-checked down to the target width, and
//   - left shifts of non-constant operands that discard high bits, unless
//     the operand was masked or vetted by a configured width-guard
//     predicate (e.g. sbbt.CanonicalAddress) in the same function.
//
// Across the whole module it additionally reports table allocations whose
// size is not a power of two while the same function derives an index mask
// from that size: `make([]T, n)` together with `n-1` indexing is only
// correct when n is a power of two.
//
// codec selects the conversion and shift checks, which apply only to the
// configured codec packages; the table-mask check runs everywhere.
func bitWidthFindings(files []*ast.File, info *types.Info, codec bool, guards []string) []driver.Diagnostic {
	var findings []driver.Diagnostic
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &widthScan{info: info, fn: fn, guards: guards}
			if codec {
				findings = append(findings, w.checkConversions()...)
				findings = append(findings, w.checkShifts()...)
			}
			findings = append(findings, w.checkTableMasks()...)
		}
	}
	return findings
}

type widthScan struct {
	info   *types.Info
	fn     *ast.FuncDecl
	guards []string
}

// intWidth returns the bit width of an integer type, or 0 when t is not an
// integer. int, uint and uintptr count as 64-bit: the analyzer targets the
// 64-bit platforms the simulator runs on, and assuming the wide side only
// produces extra reports, never missed ones.
func intWidth(t types.Type) int {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64, types.Int, types.Uint, types.Uintptr:
		return 64
	}
	return 0
}

func (w *widthScan) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *widthScan) constVal(e ast.Expr) constant.Value {
	if tv, ok := w.info.Types[e]; ok {
		return tv.Value
	}
	return nil
}

// checkConversions flags T(x) where T is narrower than x and nothing in
// the function establishes that x fits.
func (w *widthScan) checkConversions() []driver.Diagnostic {
	var findings []driver.Diagnostic
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := w.info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		dst := intWidth(tv.Type)
		operand := call.Args[0]
		src := intWidth(w.typeOf(operand))
		if dst == 0 || src == 0 || dst >= src {
			return true
		}
		if w.constVal(operand) != nil {
			return true // constant conversions are checked by the compiler
		}
		if w.boundedTo(operand, dst) || w.comparisonGuarded(operand) {
			return true
		}
		findings = append(findings, driver.Diagnostic{
			Pos:      call.Pos(),
			Category: RuleBitWidth,
			Message: fmt.Sprintf("conversion of %d-bit value %s to %d bits may truncate; mask, bounds-check, or annotate with //mbpvet:ignore %s",
				src, types.ExprString(operand), dst, RuleBitWidth),
		})
		return true
	})
	return findings
}

// checkShifts flags x << k that can drop high bits of a non-constant x.
func (w *widthScan) checkShifts() []driver.Diagnostic {
	var findings []driver.Diagnostic
	consider := func(n ast.Node, x ast.Expr, k ast.Expr) {
		kv := w.constVal(k)
		if kv == nil {
			return // dynamic shift distances are the masking idiom itself
		}
		shift, ok := constant.Int64Val(constant.ToInt(kv))
		if !ok || shift <= 0 {
			return
		}
		if w.constVal(x) != nil {
			return
		}
		width := intWidth(w.typeOf(x))
		if width == 0 {
			return
		}
		if w.boundedTo(x, width-int(shift)) || w.guarded(x) || w.comparisonGuarded(x) {
			return
		}
		findings = append(findings, driver.Diagnostic{
			Pos:      n.Pos(),
			Category: RuleBitWidth,
			Message: fmt.Sprintf("%s << %d silently drops the top %d bits; mask the operand, guard it (%v), or annotate with //mbpvet:ignore %s",
				types.ExprString(x), shift, shift, w.guards, RuleBitWidth),
		})
	}
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.SHL {
				consider(n, n.X, n.Y)
			}
		case *ast.AssignStmt:
			if n.Tok == token.SHL_ASSIGN && len(n.Lhs) == 1 {
				consider(n, n.Lhs[0], n.Rhs[0])
			}
		}
		return true
	})
	return findings
}

// boundedTo reports whether expr is syntactically guaranteed to fit in
// `width` bits: a mask by a small-enough constant, a right shift that
// leaves at most `width` bits, or a modulo by a small-enough constant.
func (w *widthScan) boundedTo(e ast.Expr, width int) bool {
	if width >= 64 {
		return true
	}
	if width < 0 {
		return false
	}
	e = ast.Unparen(e)
	bin, ok := e.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	constOperand := func() (uint64, bool) {
		for _, side := range []ast.Expr{bin.X, bin.Y} {
			if v := w.constVal(side); v != nil {
				if u, exact := constant.Uint64Val(constant.ToInt(v)); exact {
					return u, true
				}
			}
		}
		return 0, false
	}
	switch bin.Op {
	case token.AND:
		if mask, ok := constOperand(); ok {
			return bits.Len64(mask) <= width
		}
	case token.SHR:
		if k := w.constVal(bin.Y); k != nil {
			if shift, exact := constant.Int64Val(constant.ToInt(k)); exact {
				return intWidth(w.typeOf(bin.X))-int(shift) <= width
			}
		}
	case token.REM:
		if v := w.constVal(bin.Y); v != nil {
			if m, exact := constant.Uint64Val(constant.ToInt(v)); exact && m > 0 {
				return bits.Len64(m-1) <= width
			}
		}
	}
	return false
}

// guarded reports whether the enclosing function calls one of the
// configured width-guard predicates on this exact expression.
func (w *widthScan) guarded(e ast.Expr) bool {
	want := types.ExprString(e)
	found := false
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		for _, g := range w.guards {
			if name == g {
				for _, arg := range call.Args {
					if types.ExprString(arg) == want {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// comparisonGuarded reports whether the function compares this exact
// expression against anything — the bounds-check idiom. The check is
// deliberately syntactic: proving the comparison dominates the use would
// need full flow analysis, and a wrong bound is still caught by the
// round-trip fuzzers.
func (w *widthScan) comparisonGuarded(e ast.Expr) bool {
	want := types.ExprString(e)
	found := false
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch bin.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if types.ExprString(bin.X) == want || types.ExprString(bin.Y) == want {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkTableMasks flags make([]T, n) where n is not shaped like a power of
// two while the function also computes n-1 (an index mask): predictor
// tables must be power-of-two sized for mask indexing to be correct.
func (w *widthScan) checkTableMasks() []driver.Diagnostic {
	var findings []driver.Diagnostic
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return true
		}
		if _, isBuiltin := w.info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		t := w.typeOf(call)
		if t == nil {
			return true
		}
		if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
			return true
		}
		size := ast.Unparen(call.Args[1])
		if w.powerOfTwoShaped(size) {
			return true
		}
		if !w.derivesMask(size) {
			return true
		}
		findings = append(findings, driver.Diagnostic{
			Pos:      call.Pos(),
			Category: RuleBitWidth,
			Message: fmt.Sprintf("table of size %s is indexed through a mask derived from its size, but the size is not provably a power of two (use 1<<logSize)",
				types.ExprString(size)),
		})
		return true
	})
	return findings
}

// powerOfTwoShaped accepts `1 << k`, power-of-two constants, and products
// of power-of-two-shaped factors.
func (w *widthScan) powerOfTwoShaped(e ast.Expr) bool {
	e = ast.Unparen(e)
	if v := w.constVal(e); v != nil {
		u, exact := constant.Uint64Val(constant.ToInt(v))
		return exact && u != 0 && u&(u-1) == 0
	}
	if bin, ok := e.(*ast.BinaryExpr); ok {
		switch bin.Op {
		case token.SHL:
			if v := w.constVal(bin.X); v != nil {
				u, exact := constant.Uint64Val(constant.ToInt(v))
				return exact && u != 0 && u&(u-1) == 0
			}
		case token.MUL:
			return w.powerOfTwoShaped(bin.X) && w.powerOfTwoShaped(bin.Y)
		}
	}
	return false
}

// derivesMask reports whether the function uses `size - 1` as an index
// mask: as an operand of &, or assigned to a variable whose name says it
// is a mask. A bare `size - 1` (a divisor, a last-index bound) is not
// evidence of mask indexing.
func (w *widthScan) derivesMask(size ast.Expr) bool {
	want := types.ExprString(size)
	isSizeMinusOne := func(e ast.Expr) bool {
		bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || bin.Op != token.SUB || types.ExprString(bin.X) != want {
			return false
		}
		v := w.constVal(bin.Y)
		if v == nil {
			return false
		}
		one, exact := constant.Int64Val(constant.ToInt(v))
		return exact && one == 1
	}
	// `x & conv(size-1)` also counts: unwrap one conversion layer.
	unwrap := func(e ast.Expr) ast.Expr {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && len(call.Args) == 1 {
			if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
				return call.Args[0]
			}
		}
		return e
	}
	found := false
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.AND && (isSizeMinusOne(unwrap(n.X)) || isSizeMinusOne(unwrap(n.Y))) {
				found = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if strings.Contains(strings.ToLower(id.Name), "mask") && isSizeMinusOne(unwrap(n.Rhs[i])) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
