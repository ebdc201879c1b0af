package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"mbplib/internal/vet/driver"
)

// Rule V1 — Predict purity (§IV-A): a Predict method of any type that
// implements the Predictor shape (Predict(uint64) bool / Train(B) /
// Track(B)) must not modify state reachable from its receiver, because the
// simulator and every meta-predictor are entitled to call Predict any
// number of times without perturbing future predictions.
//
// The analysis is a per-package fixpoint over per-method summaries: for
// every method it computes whether the method writes through its receiver
// (directly, through a receiver-derived local, or by calling another method
// that does). Callees in other packages resolve through the methodFact
// their package exported; the driver runs packages dependencies-first, so
// those summaries are final. Interface method calls cannot be resolved
// statically; a call to an interface method named Predict is trusted (the
// contract is enforced on every implementation), anything else reachable
// from the receiver is treated conservatively as a write.
//
// Documented exceptions — prediction memoization caches are the classic
// case — are declared with a justified //mbpvet:impure doc-comment
// directive on the Predict method.

// The rule also covers the optional batched read path: a PredictBatch
// method matching the bp.BatchPredictor shape is Predict-many-times in one
// call and inherits the exact same obligation. TrainBatch is the fused
// update kernel and is expected to mutate, so it stays out of scope.

// V1 message templates. The golden JSON and SARIF files pin their bytes.
const (
	msgPredictImpure      = "Predict of %s mutates predictor state (%s); §IV-A requires Predict to be repeatable — fix it or document with //mbpvet:impure"
	msgPredictBatchImpure = "PredictBatch of %s mutates predictor state (%s); the batched read path must be as repeatable as Predict (§IV-A) — fix it or document with //mbpvet:impure"
)

// methodFact is the purity summary exported for every function declaration
// of an analyzed package. Dependent packages resolve callees through it, and
// the purity analyzer of an embedding package reads the Predict summary of
// the defining package from it.
type methodFact struct {
	Writes         bool
	ReturnsRecvRef bool
	WriteNote      string
	DeclPos        token.Pos
	// ImpureOK records a justified //mbpvet:impure annotation on the decl,
	// so a cross-package reader does not need the defining file's comments.
	ImpureOK bool
}

func (*methodFact) AFact() {}

// summaryResolver resolves a callee to its summary (local methods directly,
// imported ones through their methodFact); the boolean reports whether the
// callee is a known module method at all (an unresolvable callee is treated
// conservatively by the scan).
type summaryResolver func(*types.Func) (methodFact, bool)

// localMethod is the analysis state of one function or method declaration
// of the package under analysis.
type localMethod struct {
	decl *ast.FuncDecl
	recv *types.Var // receiver object, nil for plain functions
	// writes is true once the method is known to mutate receiver state.
	writes bool
	// writeNote describes the first discovered mutation, for reporting.
	writeNote string
	// returnsRecvRef is true if the method may return a pointer, slice or
	// map that aliases receiver state (e.g. a lookup-cache accessor).
	returnsRecvRef bool
}

// runPurityPass runs the purity fixpoint over one package, exports a
// methodFact per declaration, and reports impure Predict methods of the
// package's predictor types.
func runPurityPass(pass *driver.Pass, dirs *directives, reported map[token.Pos]bool, root string) {
	local := make(map[*types.Func]*localMethod)
	forEachFuncDecl(pass.Files, pass.TypesInfo, func(obj *types.Func, decl *ast.FuncDecl, recv *types.Var) {
		local[obj] = &localMethod{decl: decl, recv: recv}
	})
	resolve := func(callee *types.Func) (methodFact, bool) {
		if m := local[callee]; m != nil {
			return methodFact{Writes: m.writes, ReturnsRecvRef: m.returnsRecvRef}, true
		}
		var f methodFact
		ok := pass.ImportObjectFact(callee, &f)
		return f, ok
	}
	// Iterate the per-method scan until the summaries stop changing. Both
	// summary bits only ever flip from false to true, so this terminates.
	for changed := true; changed; {
		changed = false
		for _, m := range local {
			if m.recv == nil || m.writes && m.returnsRecvRef {
				continue
			}
			s := newMethodScan(pass.Fset, root, pass.TypesInfo, pass.Pkg.Scope(), m.decl, m.recv, resolve)
			s.run()
			if (s.writes && !m.writes) || (s.returnsRef && !m.returnsRecvRef) {
				m.writes = m.writes || s.writes
				if m.writeNote == "" {
					m.writeNote = s.writeNote
				}
				m.returnsRecvRef = m.returnsRecvRef || s.returnsRef
				changed = true
			}
		}
	}
	for obj, m := range local {
		pass.ExportObjectFact(obj, &methodFact{
			Writes:         m.writes,
			ReturnsRecvRef: m.returnsRecvRef,
			WriteNote:      m.writeNote,
			DeclPos:        m.decl.Pos(),
			ImpureOK:       m.recv != nil && dirs.isImpureAnnotated(pass.Fset, m.decl),
		})
	}

	for _, named := range predictorTypes(pass.Pkg) {
		judge := func(fn *types.Func, format string) {
			// Local methods read back the facts exported above.
			var sum methodFact
			if fn == nil || !pass.ImportObjectFact(fn, &sum) {
				return // body-less or generated method: nothing to judge
			}
			if reported[sum.DeclPos] {
				return // embedded method already judged by another pass
			}
			reported[sum.DeclPos] = true
			if !sum.Writes || sum.ImpureOK {
				return
			}
			pass.Reportf(sum.DeclPos, format, named.Obj().Name(), sum.WriteNote)
		}
		judge(lookupMethod(named, "Predict"), msgPredictImpure)
		judge(lookupBatchPredict(named), msgPredictBatchImpure)
	}
}

// predictorTypes returns the named types of pkg whose pointer method set
// has the Predictor shape.
func predictorTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if isPredictorShape(named) {
			out = append(out, named)
		}
	}
	return out
}

// isPredictorShape reports whether *T satisfies the structural contract:
// Predict(uint64) bool, Train(B) and Track(B) for one branch type B.
func isPredictorShape(named *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(named))
	find := func(name string) *types.Signature {
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i); m.Obj().Name() == name {
				if sig, ok := m.Obj().Type().(*types.Signature); ok {
					return sig
				}
			}
		}
		return nil
	}
	predict := find("Predict")
	if predict == nil || predict.Params().Len() != 1 || predict.Results().Len() != 1 {
		return false
	}
	if b, ok := predict.Params().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Uint64 {
		return false
	}
	if b, ok := predict.Results().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	train, track := find("Train"), find("Track")
	if train == nil || track == nil {
		return false
	}
	if train.Params().Len() != 1 || train.Results().Len() != 0 ||
		track.Params().Len() != 1 || track.Results().Len() != 0 {
		return false
	}
	return types.Identical(train.Params().At(0).Type(), track.Params().At(0).Type())
}

// lookupMethod resolves the named method in *T's method set (following
// embedded fields) to its function object.
func lookupMethod(named *types.Named, name string) *types.Func {
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i); m.Obj().Name() == name {
			if fn, ok := m.Obj().(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// lookupBatchPredict resolves the optional batched read path of a predictor
// type: a PredictBatch method taking exactly two slice parameters — the
// first over the type's Train/Track branch type — and returning nothing,
// the bp.BatchPredictor shape. Anything else named PredictBatch is an
// unrelated method and stays out of V1's scope.
func lookupBatchPredict(named *types.Named) *types.Func {
	fn := lookupMethod(named, "PredictBatch")
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return nil
	}
	branches, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	if _, ok := sig.Params().At(1).Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	train := lookupMethod(named, "Train")
	if train == nil {
		return nil
	}
	tsig, ok := train.Type().(*types.Signature)
	if !ok || tsig.Params().Len() != 1 ||
		!types.Identical(branches.Elem(), tsig.Params().At(0).Type()) {
		return nil
	}
	return fn
}

// forEachFuncDecl visits every function declaration with a body in files,
// resolving its object and (when the receiver is a single named variable)
// its receiver object. Shared by the purity and goroutine rules.
func forEachFuncDecl(files []*ast.File, info *types.Info, visit func(obj *types.Func, decl *ast.FuncDecl, recv *types.Var)) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			var recv *types.Var
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
					if rv, ok := info.Defs[fn.Recv.List[0].Names[0]].(*types.Var); ok {
						recv = rv
					}
				}
			}
			visit(obj, fn, recv)
		}
	}
}

// methodScan walks one method body, tracking which locals alias receiver
// state and whether any statement writes through the receiver. Callee
// summaries come through the resolver, so the scan itself is per-package.
type methodScan struct {
	fset       *token.FileSet
	root       string // module root that notes name files relative to
	info       *types.Info
	scope      *types.Scope // package scope, to exclude package-level vars
	decl       *ast.FuncDecl
	recv       *types.Var
	resolve    summaryResolver
	tainted    map[types.Object]bool
	writes     bool
	writeNote  string
	returnsRef bool
}

func newMethodScan(fset *token.FileSet, root string, info *types.Info, scope *types.Scope, decl *ast.FuncDecl, recv *types.Var, resolve summaryResolver) *methodScan {
	return &methodScan{
		fset: fset, root: root, info: info, scope: scope, decl: decl, recv: recv,
		resolve: resolve, tainted: make(map[types.Object]bool),
	}
}

func (s *methodScan) run() {
	// Taint is flow-insensitive: repeat until the tainted set is stable so
	// `l := p.cached(ip); e := l.entry` chains resolve in any order.
	for {
		before := len(s.tainted)
		ast.Inspect(s.decl.Body, s.visit)
		if len(s.tainted) == before {
			break
		}
	}
	// A tainted named result escapes through a bare return.
	if res := s.decl.Type.Results; res != nil {
		for _, field := range res.List {
			for _, name := range field.Names {
				if obj := s.info.Defs[name]; obj != nil && s.tainted[obj] {
					s.returnsRef = true
				}
			}
		}
	}
}

func (s *methodScan) note(n ast.Node, format string, args ...any) {
	if s.writes {
		return
	}
	s.writes = true
	pos := s.fset.Position(n.Pos())
	s.writeNote = fmt.Sprintf(format, args...) + fmt.Sprintf(" at %s:%d", relPath(s.root, pos.Filename), pos.Line)
}

func (s *methodScan) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		anyRooted := false
		for _, rhs := range n.Rhs {
			if s.rooted(rhs) {
				anyRooted = true
			}
		}
		for _, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name == "_" {
					continue
				}
				// Writing a plain local: taint it if the value aliases
				// receiver state and the local's type can carry a reference.
				if obj := s.localObj(id); obj != nil {
					if anyRooted && refLike(obj.Type()) {
						s.tainted[obj] = true
					}
					continue
				}
			}
			if s.rooted(lhs) {
				s.note(n, "assignment to receiver state")
			}
		}
	case *ast.IncDecStmt:
		if s.rooted(n.X) {
			s.note(n, "increment/decrement of receiver state")
		}
	case *ast.SendStmt:
		if s.rooted(n.Chan) {
			s.note(n, "send on receiver-owned channel")
		}
	case *ast.RangeStmt:
		if s.rooted(n.X) {
			for _, v := range []ast.Expr{n.Key, n.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
					if obj := s.localObj(id); obj != nil && refLike(obj.Type()) {
						s.tainted[obj] = true
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if s.rooted(res) && refLike(s.typeOf(res)) {
				s.returnsRef = true
			}
		}
	case *ast.CallExpr:
		s.visitCall(n)
	}
	return true
}

func (s *methodScan) visitCall(call *ast.CallExpr) {
	info := s.info
	// Builtins that mutate their argument.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "copy", "delete", "clear":
				if len(call.Args) > 0 && s.rooted(call.Args[0]) {
					s.note(call, "builtin %s mutates receiver state", id.Name)
				}
			case "append":
				// append may write into the backing array of the receiver's
				// slice when capacity allows.
				if len(call.Args) > 0 && s.rooted(call.Args[0]) {
					s.note(call, "append to receiver-owned slice")
				}
			}
			return
		}
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if selection := info.Selections[sel]; selection != nil && selection.Kind() == types.MethodVal {
			if !s.rooted(sel.X) {
				return // method call on non-receiver state: out of scope
			}
			callee, _ := selection.Obj().(*types.Func)
			if callee == nil {
				return
			}
			sig := callee.Type().(*types.Signature)
			if sum, known := s.resolve(callee); known {
				// Module-local method with a summary. A mutating method only
				// affects the caller's state through a pointer receiver.
				if sum.Writes && isPointerRecv(sig) {
					s.note(call, "call to %s, which mutates receiver state", callee.Name())
				}
				return
			}
			// Unresolvable callee: interface dispatch or non-module package.
			if types.IsInterface(sig.Recv().Type()) {
				// The Predict/PredictBatch contracts are enforced on every
				// implementation, so trusting sub-predictor read calls is
				// sound.
				if callee.Name() == "Predict" || callee.Name() == "PredictBatch" {
					return
				}
				s.note(call, "call to interface method %s on receiver state", callee.Name())
				return
			}
			if isPointerRecv(sig) {
				s.note(call, "call to external method %s with pointer receiver on receiver state", callee.Name())
			}
			return
		}
	}

	// Plain function call (module-local, stdlib, or a func value): passing
	// receiver-aliasing references lets the callee mutate them.
	for _, arg := range call.Args {
		if s.rooted(arg) && refLike(s.typeOf(arg)) {
			s.note(call, "receiver state passed by reference to a function call")
		}
	}
}

// localObj returns the object of id when it names a local variable
// (including the receiver's siblings: params and results), or nil.
func (s *methodScan) localObj(id *ast.Ident) *types.Var {
	obj := s.info.Defs[id]
	if obj == nil {
		obj = s.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v == s.recv {
		return nil
	}
	// Package-level variables are shared state, not locals.
	if v.Parent() == s.scope {
		return nil
	}
	return v
}

// rooted reports whether e may alias state reachable from the receiver.
func (s *methodScan) rooted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := s.info.Uses[e]
		if obj == nil {
			obj = s.info.Defs[e]
		}
		return obj != nil && (obj == s.recv || s.tainted[obj])
	case *ast.SelectorExpr:
		if s.info.Selections[e] == nil {
			return false // qualified identifier (pkg.Name)
		}
		return s.rooted(e.X)
	case *ast.IndexExpr:
		return s.rooted(e.X)
	case *ast.StarExpr:
		return s.rooted(e.X)
	case *ast.ParenExpr:
		return s.rooted(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() == "&" && s.rooted(e.X)
	case *ast.TypeAssertExpr:
		return s.rooted(e.X)
	case *ast.SliceExpr:
		return s.rooted(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if s.rooted(elt) && refLike(s.typeOf(elt)) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// A method that returns a receiver-derived reference propagates
		// rootedness to its result (lookup-cache accessors).
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if selection := s.info.Selections[sel]; selection != nil && selection.Kind() == types.MethodVal {
				if callee, _ := selection.Obj().(*types.Func); callee != nil {
					if sum, known := s.resolve(callee); known && sum.ReturnsRecvRef && s.rooted(sel.X) {
						return true
					}
				}
			}
		}
		return false
	}
	return false
}

func (s *methodScan) typeOf(e ast.Expr) types.Type {
	if tv, ok := s.info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isPointerRecv(sig *types.Signature) bool {
	if sig.Recv() == nil {
		return false
	}
	_, ok := sig.Recv().Type().Underlying().(*types.Pointer)
	return ok
}

// refLike reports whether values of type t can carry a reference through
// which shared state is mutated (pointers, slices, maps, channels,
// functions, interfaces, or composites containing one).
func refLike(t types.Type) bool {
	return refLikeDepth(t, 0)
}

func refLikeDepth(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return true // unknown: be conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return refLikeDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLikeDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if refLikeDepth(u.At(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return true
}
