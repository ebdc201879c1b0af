package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mbplib/internal/vet/driver"
)

// This file re-expresses the mbpvet rules as driver.Analyzer values and
// provides RunAnalyzers, the analyzer-based replacement of the legacy Run.
// The per-package rule bodies live next to each legacy checker and are
// shared verbatim, so both drivers produce byte-identical findings over the
// V1-V5 corpus (an equivalence test enforces this). The whole-program rules
// flow their cross-package state through driver facts instead of module
// maps: purity exports a methodFact per method, registry consumes the
// predictorExportFact package facts of the predexport helper analyzer.

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

// predictorExportFact marks a package that exports a Predictor
// implementation; Name is the exported type's name.
type predictorExportFact struct{ Name string }

func (*predictorExportFact) AFact() {}

// analyzerSet is the full rule catalogue keyed by rule name, plus the
// helper analyzers that only exist to feed facts to the rules.
type analyzerSet struct {
	rules map[string]*driver.Analyzer
}

// buildAnalyzers constructs the nine rule analyzers for one run. The set is
// rebuilt per run because the analyzers close over the configuration, the
// collected directives and small amounts of cross-pass state (the purity
// rule's reported set); the driver is single-threaded, so closures are safe.
func buildAnalyzers(cfg Config, dirs *directives, root string) *analyzerSet {
	s := &analyzerSet{rules: make(map[string]*driver.Analyzer)}

	// V1 purity: per-package fixpoint over the local methods; callees in
	// other packages resolve through methodFacts, which the driver's
	// import-topological package order guarantees are already exported.
	// reported mirrors the legacy driver's global seen set: a Predict shared
	// through cross-package embedding is judged once, by the defining pass.
	reported := make(map[token.Pos]bool)
	purity := &driver.Analyzer{
		Name:      RulePurity,
		Doc:       "Predict must not mutate predictor state (§IV-A)",
		FactTypes: []driver.Fact{new(methodFact)},
		Run: func(pass *driver.Pass) (any, error) {
			runPurityPass(pass, dirs, reported, root)
			return nil, nil
		},
	}
	s.rules[RulePurity] = purity

	// predexport is a helper, not a rule: it tags every predictor package
	// with a predictorExportFact so the registry rule can enumerate them
	// without importing them.
	predexport := &driver.Analyzer{
		Name:      "predexport",
		Doc:       "export a fact for every package exporting a Predictor implementation",
		FactTypes: []driver.Fact{new(predictorExportFact)},
		Run: func(pass *driver.Pass) (any, error) {
			path := pass.Pkg.Path()
			if cfg.RegistryPath == "" || path == cfg.RegistryPath ||
				!strings.HasPrefix(path, cfg.PredictorRoot+"/") {
				return nil, nil
			}
			if name := exportedPredictorName(pass.Pkg); name != "" {
				pass.ExportPackageFact(&predictorExportFact{Name: name})
			}
			return nil, nil
		},
	}

	// V2 registry: runs only on the registry package, diffing the predictor
	// facts of the whole module against the registry's imports. This is the
	// rule the driver's module-wide fact completeness exists for.
	s.rules[RuleRegistry] = &driver.Analyzer{
		Name:     RuleRegistry,
		Doc:      "every predictor package is constructible through the registry",
		Requires: []*driver.Analyzer{predexport},
		Run: func(pass *driver.Pass) (any, error) {
			if cfg.RegistryPath == "" || pass.Pkg.Path() != cfg.RegistryPath {
				return nil, nil
			}
			imported := make(map[string]bool)
			for _, imp := range pass.Pkg.Imports() {
				imported[imp.Path()] = true
			}
			for _, pf := range pass.AllPackageFacts() {
				ef, ok := pf.Fact.(*predictorExportFact)
				if !ok || imported[pf.Package.Path()] {
					continue
				}
				pass.Reportf(pass.Files[0].Name.Pos(),
					"predictor package %s exports %s but is not constructible through the registry (add a builder and import)",
					pf.Package.Path(), ef.Name)
			}
			return nil, nil
		},
	}

	// V3-V5 are per-package scans sharing their bodies with the legacy
	// checkers; only the package selection lives here.
	s.rules[RuleDroppedErr] = &driver.Analyzer{
		Name: RuleDroppedErr,
		Doc:  "no discarded error results in the codec and simulator packages",
		Run: func(pass *driver.Pass) (any, error) {
			if hasPathPrefix(pass.Pkg.Path(), cfg.ErrorPackages) {
				reportRaw(pass, droppedErrorFindings(pass.Files, pass.TypesInfo))
			}
			return nil, nil
		},
	}
	s.rules[RuleBitWidth] = &driver.Analyzer{
		Name: RuleBitWidth,
		Doc:  "no silent truncation in codec paths; mask-indexed tables are power-of-two sized",
		Run: func(pass *driver.Pass) (any, error) {
			codec := hasPathPrefix(pass.Pkg.Path(), cfg.WidthPackages)
			reportRaw(pass, bitWidthFindings(pass.Files, pass.TypesInfo, codec, cfg.GuardFuncs))
			return nil, nil
		},
	}
	s.rules[RulePanicFree] = &driver.Analyzer{
		Name: RulePanicFree,
		Doc:  "no panic on untrusted input in the decode packages",
		Run: func(pass *driver.Pass) (any, error) {
			if hasPathPrefix(pass.Pkg.Path(), cfg.PanicFreePackages) {
				reportRaw(pass, panicFreeFindings(pass.Files, pass.TypesInfo))
			}
			return nil, nil
		},
	}

	// V6-V9, the concurrency family.
	s.rules[RuleGoroutine] = &driver.Analyzer{
		Name: RuleGoroutine,
		Doc:  "every go statement has a provable join or cancel path",
		Run: func(pass *driver.Pass) (any, error) {
			if hasPathPrefix(pass.Pkg.Path(), cfg.ConcurrencyPackages) {
				reportRaw(pass, goroutineFindings(pass.Files, pass.TypesInfo))
			}
			return nil, nil
		},
	}
	s.rules[RuleGuardedBy] = &driver.Analyzer{
		Name: RuleGuardedBy,
		Doc:  "mutex-guarded fields are never accessed without the lock",
		Run: func(pass *driver.Pass) (any, error) {
			if hasPathPrefix(pass.Pkg.Path(), cfg.ConcurrencyPackages) {
				reportRaw(pass, guardedByFindings(pass.Files, pass.TypesInfo))
			}
			return nil, nil
		},
	}
	s.rules[RuleAtomic] = &driver.Analyzer{
		Name: RuleAtomic,
		Doc:  "atomically-accessed fields are never accessed plainly and 64-bit atomics are aligned",
		Run: func(pass *driver.Pass) (any, error) {
			if hasPathPrefix(pass.Pkg.Path(), cfg.ConcurrencyPackages) {
				for _, d := range atomicFindings(pass.Files, pass.TypesInfo) {
					pass.Report(d)
				}
			}
			return nil, nil
		},
	}
	s.rules[RuleCtxProp] = &driver.Analyzer{
		Name: RuleCtxProp,
		Doc:  "a received context.Context is propagated, not dropped",
		Run: func(pass *driver.Pass) (any, error) {
			if hasPathPrefix(pass.Pkg.Path(), cfg.ContextPackages) {
				for _, d := range ctxPropFindings(pass.Files, pass.TypesInfo) {
					pass.Report(d)
				}
			}
			return nil, nil
		},
	}
	return s
}

// reportRaw reports shared-rule raw findings as driver diagnostics.
func reportRaw(pass *driver.Pass, raws []rawFinding) {
	for _, r := range raws {
		pass.Report(driver.Diagnostic{Pos: r.pos, Category: r.rule, Message: r.msg})
	}
}

// localMethod is the purity analyzer's per-package view of one function
// declaration, mirroring the legacy methodInfo without the package pointer.
type localMethod struct {
	decl           *ast.FuncDecl
	recv           *types.Var
	writes         bool
	writeNote      string
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
	resolve := func(callee *types.Func) (methodSummary, bool) {
		if m := local[callee]; m != nil {
			return methodSummary{writes: m.writes, returnsRecvRef: m.returnsRecvRef}, true
		}
		var f methodFact
		if pass.ImportObjectFact(callee, &f) {
			return methodSummary{writes: f.Writes, returnsRecvRef: f.ReturnsRecvRef}, true
		}
		return methodSummary{}, false
	}
	// Per-package fixpoint: identical dynamics to the legacy module-wide
	// solve, except imported callees are already final (packages run
	// dependencies-first), which can only converge faster.
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
			if fn == nil {
				return
			}
			var sum methodFact
			if m := local[fn]; m != nil {
				sum = methodFact{
					Writes:    m.writes,
					WriteNote: m.writeNote,
					DeclPos:   m.decl.Pos(),
					ImpureOK:  dirs.isImpureAnnotated(pass.Fset, m.decl),
				}
			} else if !pass.ImportObjectFact(fn, &sum) {
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

// driverPackages adapts the loader's packages to the driver's view.
func driverPackages(prog *Program) []*driver.Package {
	pkgs := make([]*driver.Package, 0, len(prog.Packages))
	for _, p := range prog.Sorted() {
		pkgs = append(pkgs, &driver.Package{Path: p.Path, Files: p.Files, Types: p.Types, Info: p.Info})
	}
	return pkgs
}

// selectRules resolves a -rules style selection (rule names or vN aliases)
// to canonical rule names in V-number order; nil selects everything. An
// unknown name is an error, surfaced to the CLI as exit code 2.
func selectRules(rules []string) ([]string, error) {
	if len(rules) == 0 {
		return AllRules(), nil
	}
	aliases := RuleAliases()
	want := make(map[string]bool)
	for _, r := range rules {
		name := strings.TrimSpace(r)
		if canon, ok := aliases[strings.ToLower(name)]; ok {
			name = canon
		}
		found := false
		for _, known := range AllRules() {
			if name == known {
				found = true
				break
			}
		}
		if !found {
			return nil, &UnknownRuleError{Name: r}
		}
		want[name] = true
	}
	var out []string
	for _, r := range AllRules() {
		if want[r] {
			out = append(out, r)
		}
	}
	return out, nil
}

// UnknownRuleError reports a -rules name that matches no rule or alias.
type UnknownRuleError struct{ Name string }

func (e *UnknownRuleError) Error() string {
	return "unknown rule " + e.Name + " (known: " + strings.Join(AllRules(), ", ") + " or v1..v9)"
}

// RunAnalyzers executes the selected rules (nil = all nine) over prog
// through the analyzer driver and returns the surviving findings, sorted
// and suppressed exactly like the legacy Run. Malformed //mbpvet:
// directives are always reported, regardless of the rule selection: a
// suppression that does not parse must never silently vanish.
func RunAnalyzers(prog *Program, cfg Config, rules []string) ([]Finding, error) {
	selected, err := selectRules(rules)
	if err != nil {
		return nil, err
	}
	dirs := collectDirectives(prog)
	set := buildAnalyzers(cfg, dirs, prog.Root)
	analyzers := make([]*driver.Analyzer, 0, len(selected))
	for _, r := range selected {
		analyzers = append(analyzers, set.rules[r])
	}
	results, err := driver.Run(prog.Fset, driverPackages(prog), analyzers)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, res := range results {
		for _, d := range res.Diagnostics {
			f := Finding{Pos: prog.Fset.Position(d.Pos), Rule: d.Category, Msg: d.Message}
			if len(d.SuggestedFixes) > 0 {
				fix := d.SuggestedFixes[0]
				f.Fix = &fix
			}
			findings = append(findings, f)
		}
	}
	findings = append(findings, dirs.malformed...)

	kept := findings[:0]
	seen := make(map[string]bool, len(findings))
	for _, f := range findings {
		if dirs.suppressed(f) {
			continue
		}
		// Column-inclusive dedupe: distinct nodes always differ in column,
		// so this only drops true duplicates (e.g. a Predict reached through
		// two embedding paths reported by defensive double-walks).
		key := f.String() + "\x00" + f.Pos.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		kept = append(kept, f)
	}
	sortFindings(kept)
	return kept, nil
}
