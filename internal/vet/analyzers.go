package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mbplib/internal/vet/driver"
)

// This file expresses the mbpvet rules as driver.Analyzer values and
// provides RunAnalyzers, the one driver that runs them. The per-package rule
// bodies live in one file per rule. The whole-program rules flow their
// cross-package state through driver facts: purity exports a methodFact per
// method, registry consumes the predictorExportFact package facts of the
// predexport helper analyzer.

// predictorExportFact marks a package that exports a Predictor
// implementation; Name is the exported type's name.
type predictorExportFact struct{ Name string }

func (*predictorExportFact) AFact() {}

// buildAnalyzers constructs the nine rule analyzers for one run, keyed by
// rule name. The set is rebuilt per run because the analyzers close over the
// configuration, the collected directives and small amounts of cross-pass
// state (the purity rule's reported set); the driver is single-threaded, so
// closures are safe.
func buildAnalyzers(cfg Config, dirs *directives, root string) map[string]*driver.Analyzer {
	// V1 purity: per-package fixpoint over the local methods; callees in
	// other packages resolve through methodFacts, which the driver's
	// import-topological package order guarantees are already exported.
	// reported is shared by every pass: a Predict promoted through
	// cross-package embedding is judged once, by the first pass whose
	// predictor type reaches it.
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

	// V2 registry completeness: every package under the predictors tree
	// that exports a Predictor implementation must be reachable from the
	// predictor registry, so `mbpsim -predictor <name>` and the sweep
	// harnesses can construct it. A predictor package that the registry
	// does not import is a package nobody can select, which in practice
	// means a contributed predictor that silently fell out of the
	// catalogue.
	//
	// The rule runs only on the registry package, diffing the predictor
	// facts of the whole module against the registry's imports. This is the
	// rule the driver's module-wide fact completeness exists for.
	registry := &driver.Analyzer{
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

	// V4 scans every package: the table-mask check is module-wide, the
	// conversion and shift checks apply to the codec packages only.
	bitwidth := &driver.Analyzer{
		Name: RuleBitWidth,
		Doc:  "no silent truncation in codec paths; mask-indexed tables are power-of-two sized",
		Run: func(pass *driver.Pass) (any, error) {
			codec := hasPathPrefix(pass.Pkg.Path(), cfg.WidthPackages)
			for _, d := range bitWidthFindings(pass.Files, pass.TypesInfo, codec, cfg.GuardFuncs) {
				pass.Report(d)
			}
			return nil, nil
		},
	}

	return map[string]*driver.Analyzer{
		RulePurity:   purity,
		RuleRegistry: registry,
		RuleDroppedErr: packageRule(RuleDroppedErr, "no discarded error results in the codec and simulator packages",
			cfg.ErrorPackages, droppedErrorFindings),
		RuleBitWidth: bitwidth,
		RulePanicFree: packageRule(RulePanicFree, "no panic on untrusted input in the decode packages",
			cfg.PanicFreePackages, panicFreeFindings),
		// V6-V9, the concurrency family.
		RuleGoroutine: packageRule(RuleGoroutine, "every go statement has a provable join or cancel path",
			cfg.ConcurrencyPackages, goroutineFindings),
		RuleGuardedBy: packageRule(RuleGuardedBy, "mutex-guarded fields are never accessed without the lock",
			cfg.ConcurrencyPackages, guardedByFindings),
		RuleAtomic: packageRule(RuleAtomic, "atomically-accessed fields are never accessed plainly and 64-bit atomics are aligned",
			cfg.ConcurrencyPackages, atomicFindings),
		RuleCtxProp: packageRule(RuleCtxProp, "a received context.Context is propagated, not dropped",
			cfg.ContextPackages, ctxPropFindings),
	}
}

// packageRule builds the analyzer of a per-package rule: body runs on every
// package under one of prefixes, and its diagnostics are reported as is.
func packageRule(name, doc string, prefixes []string, body func([]*ast.File, *types.Info) []driver.Diagnostic) *driver.Analyzer {
	return &driver.Analyzer{
		Name: name,
		Doc:  doc,
		Run: func(pass *driver.Pass) (any, error) {
			if hasPathPrefix(pass.Pkg.Path(), prefixes) {
				for _, d := range body(pass.Files, pass.TypesInfo) {
					pass.Report(d)
				}
			}
			return nil, nil
		},
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
// through the analyzer driver and returns the surviving findings sorted by
// position. Findings suppressed by a justified //mbpvet: directive are
// dropped; a directive without a justification is itself reported, so
// suppressions stay documented. Malformed directives are reported
// regardless of the rule selection: a suppression that does not parse must
// never silently vanish.
func RunAnalyzers(prog *Program, cfg Config, rules []string) ([]Finding, error) {
	selected, err := selectRules(rules)
	if err != nil {
		return nil, err
	}
	dirs := collectDirectives(prog)
	set := buildAnalyzers(cfg, dirs, prog.Root)
	analyzers := make([]*driver.Analyzer, 0, len(selected))
	for _, r := range selected {
		analyzers = append(analyzers, set[r])
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
