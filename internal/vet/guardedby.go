package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mbplib/internal/vet/driver"
)

// Rule V7 — locked-field consistency, in the spirit of gVisor's checklocks:
// a struct field that one method mutates while holding a mutex must never be
// accessed in another method of the same struct without that mutex. The rule
// infers the guarded set per struct and checks it at method granularity:
//
//   - A field is inferred-guarded by mutex path P when a method of the
//     struct both locks P (recv.P.Lock or recv.P.RLock anywhere in its
//     body) and writes the field through the receiver.
//   - A field is declared-guarded with //mbpvet:guardedby <path> on its
//     declaration, where <path> walks fields from the receiver to a
//     sync.Mutex or sync.RWMutex (e.g. "mu", or "c.mu" for a back-pointer
//     to the owning structure). An annotation that resolves to no mutex is
//     itself reported.
//   - A method whose name ends in "Locked", or whose doc comment carries
//     //mbpvet:guardedby <path>, asserts that its caller holds the lock:
//     its accesses are not reported (and, being unproven, do not infer).
//
// The check is receiver-scoped and flow-insensitive on purpose: whether a
// *particular* access happens under the lock would need a happens-before
// analysis, while "this method takes the lock somewhere" is cheap, stable
// under refactoring, and already catches the dangerous pattern — a method
// written without any locking touching state every other writer protects.
// DESIGN.md discusses why the inference is per-struct rather than
// whole-program.

// guardInfo records how a field came to be guarded, for the report text.
type guardInfo struct {
	path   string // mutex path relative to the receiver, e.g. "mu" or "c.mu"
	source string // "//mbpvet:guardedby annotation" or "inferred from <method>"
}

// guardedStruct is the per-struct analysis state.
type guardedStruct struct {
	name   string
	named  *types.Named
	guards map[*types.Var]guardInfo
}

func guardedByFindings(files []*ast.File, info *types.Info) []driver.Diagnostic {
	var out []driver.Diagnostic
	structs := make(map[*types.Named]*guardedStruct)
	var order []*guardedStruct

	// Pass 1: structs, their mutex fields, and explicit annotations.
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				return true
			}
			gs := &guardedStruct{name: ts.Name.Name, named: named, guards: make(map[*types.Var]guardInfo)}
			structs[named] = gs
			order = append(order, gs)
			for _, field := range st.Fields.List {
				path, pos, ok := guardedByAnnotation(field)
				if !ok {
					continue
				}
				if !resolvesToMutex(named, path) {
					out = append(out, driver.Diagnostic{
						Pos:      pos,
						Category: RuleGuardedBy,
						Message: fmt.Sprintf("//mbpvet:guardedby %s on %s names no sync.Mutex or sync.RWMutex reachable from the struct",
							path, gs.name),
					})
					continue
				}
				for _, name := range field.Names {
					if fv, ok := info.Defs[name].(*types.Var); ok {
						gs.guards[fv] = guardInfo{path: path, source: "//mbpvet:guardedby annotation"}
					}
				}
			}
			return true
		})
	}
	if len(structs) == 0 {
		return out
	}

	// Pass 2: method contexts — which guard paths each method locks, and
	// whether it asserts caller-held locking. Then infer guarded fields from
	// locked writes, in declaration order so reports are deterministic.
	type methodCtx struct {
		gs          *guardedStruct
		decl        *ast.FuncDecl
		recv        *types.Var
		locks       map[string]bool
		firstLock   string
		callerHolds bool
	}
	var methods []*methodCtx
	forEachFuncDecl(files, info, func(obj *types.Func, decl *ast.FuncDecl, recv *types.Var) {
		if recv == nil {
			return
		}
		named := receiverNamed(recv.Type())
		gs := structs[named]
		if gs == nil {
			return
		}
		m := &methodCtx{gs: gs, decl: decl, recv: recv, locks: make(map[string]bool)}
		if strings.HasSuffix(decl.Name.Name, "Locked") {
			m.callerHolds = true
		}
		if decl.Doc != nil {
			for _, c := range decl.Doc.List {
				if rest, ok := strings.CutPrefix(c.Text, "//mbpvet:guardedby"); ok && strings.TrimSpace(rest) != "" {
					m.callerHolds = true
				}
			}
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
				return true
			}
			if path, ok := receiverPath(info, m.recv, sel.X); ok {
				if !m.locks[path] && m.firstLock == "" {
					m.firstLock = path
				}
				m.locks[path] = true
			}
			return true
		})
		methods = append(methods, m)
	})
	for _, m := range methods {
		if m.callerHolds || len(m.locks) == 0 {
			continue
		}
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			var target ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if fv, ok := receiverField(info, m.recv, lhs); ok {
						if _, known := m.gs.guards[fv]; !known {
							m.gs.guards[fv] = guardInfo{path: m.firstLock, source: "inferred from " + m.decl.Name.Name}
						}
					}
				}
				return true
			case *ast.IncDecStmt:
				target = n.X
			}
			if target != nil {
				if fv, ok := receiverField(info, m.recv, target); ok {
					if _, known := m.gs.guards[fv]; !known {
						m.gs.guards[fv] = guardInfo{path: m.firstLock, source: "inferred from " + m.decl.Name.Name}
					}
				}
			}
			return true
		})
	}

	// Pass 3: report bare accesses to guarded fields.
	for _, m := range methods {
		if m.callerHolds || len(m.gs.guards) == 0 {
			continue
		}
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fv, ok := receiverField(info, m.recv, sel)
			if !ok {
				return true
			}
			g, guarded := m.gs.guards[fv]
			if !guarded || m.locks[g.path] {
				return true
			}
			out = append(out, driver.Diagnostic{
				Pos:      sel.Pos(),
				Category: RuleGuardedBy,
				Message: fmt.Sprintf("%s.%s is guarded by %s (%s) but %s accesses it without the lock; lock %s first, give the method a Locked suffix, or declare //mbpvet:guardedby in its doc",
					m.gs.name, fv.Name(), g.path, g.source, m.decl.Name.Name, g.path),
			})
			return true
		})
	}
	return out
}

// guardedByAnnotation extracts a //mbpvet:guardedby path from a field's doc
// or line comment.
func guardedByAnnotation(field *ast.Field) (path string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, found := strings.CutPrefix(c.Text, "//mbpvet:guardedby"); found {
				p := strings.TrimSpace(rest)
				if p != "" {
					return strings.Fields(p)[0], c.Pos(), true
				}
			}
		}
	}
	return "", 0, false
}

// receiverNamed unwraps a receiver type to its named struct type.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// receiverPath renders e as a dot path rooted at the receiver variable
// ("c.mu" for e=c.mu with receiver c gives "mu"; e=e.c.mu gives "c.mu").
func receiverPath(info *types.Info, recv *types.Var, e ast.Expr) (string, bool) {
	var segs []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			segs = append([]string{x.Sel.Name}, segs...)
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj == recv {
				if len(segs) == 0 {
					return "", false
				}
				return strings.Join(segs, "."), true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// receiverField resolves e to a directly-declared field of the receiver's
// struct when e is recv.<field>.
func receiverField(info *types.Info, recv *types.Var, e ast.Expr) (*types.Var, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || info.Uses[id] != recv {
		return nil, false
	}
	fv, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !fv.IsField() {
		return nil, false
	}
	return fv, true
}

// resolvesToMutex walks path ("mu", "c.mu", ...) from the struct through
// field types, dereferencing pointers, and reports whether it ends at a
// sync.Mutex or sync.RWMutex.
func resolvesToMutex(named *types.Named, path string) bool {
	t := types.Type(named)
	for _, seg := range strings.Split(path, ".") {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return false
		}
		var next types.Type
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == seg {
				next = st.Field(i).Type()
				break
			}
		}
		if next == nil {
			return false
		}
		t = next
	}
	return isMutexType(t)
}

func isMutexType(t types.Type) bool {
	return interfaceNamed(t, "sync", "Mutex") || interfaceNamed(t, "sync", "RWMutex")
}
