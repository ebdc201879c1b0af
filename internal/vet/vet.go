package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"mbplib/internal/vet/driver"
)

// Rule names. The README documents each one; the V1-V9 numbering follows
// the order they were specified in.
const (
	RulePurity     = "purity"     // V1: Predict must not mutate predictor state
	RuleRegistry   = "registry"   // V2: every predictor package is registered
	RuleDroppedErr = "droppederr" // V3: no discarded error results in codecs
	RuleBitWidth   = "bitwidth"   // V4: no silent truncation in codec paths
	RulePanicFree  = "panicfree"  // V5: no panic on untrusted input in codecs
	RuleGoroutine  = "goroutine"  // V6: every go statement has a join/cancel path
	RuleGuardedBy  = "guardedby"  // V7: mutex-guarded fields never accessed bare
	RuleAtomic     = "atomic"     // V8: atomic fields never accessed plainly, 64-bit aligned
	RuleCtxProp    = "ctxprop"    // V9: a received context is propagated, not dropped
)

// AllRules lists every rule in V-number order; -rules validation, the
// README table and the fixture meta-test iterate it.
func AllRules() []string {
	return []string{
		RulePurity, RuleRegistry, RuleDroppedErr, RuleBitWidth, RulePanicFree,
		RuleGoroutine, RuleGuardedBy, RuleAtomic, RuleCtxProp,
	}
}

// RuleAliases maps the short vN spellings accepted by -rules to rule names.
func RuleAliases() map[string]string {
	m := make(map[string]string)
	for i, r := range AllRules() {
		m[fmt.Sprintf("v%d", i+1)] = r
	}
	return m
}

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	// Fix is an optional machine-applicable resolution carried over from the
	// rule's diagnostic. mbpvet -fix applies it; the JSON and SARIF renderers
	// describe it.
	Fix *driver.SuggestedFix
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Config selects which packages each rule applies to. Paths are import
// paths; prefix lists match the package itself or any package below it.
type Config struct {
	// RegistryPath is the import path of the predictor registry package.
	// Empty disables the registry rule.
	RegistryPath string
	// PredictorRoot is the import-path prefix under which every package
	// exporting a Predictor implementation must be registered.
	PredictorRoot string
	// ErrorPackages are the import-path prefixes checked for dropped errors.
	ErrorPackages []string
	// WidthPackages are the import-path prefixes checked for truncating
	// conversions and shifts (the trace codec packages).
	WidthPackages []string
	// GuardFuncs are names of predicate functions that establish that a
	// value fits the format's bit width (e.g. sbbt.CanonicalAddress). A
	// shift whose operand was passed to a guard in the same function is
	// not reported.
	GuardFuncs []string
	// PanicFreePackages are the import-path prefixes that decode untrusted
	// bytes and therefore must never call panic: hostile input has to
	// surface as a typed error, not a crash.
	PanicFreePackages []string
	// ConcurrencyPackages are the import-path prefixes audited by the
	// concurrency rules (V6 goroutine lifecycle, V7 guarded fields, V8
	// atomic discipline): the scheduler, cache, observability and command
	// packages that spawn goroutines and share state.
	ConcurrencyPackages []string
	// ContextPackages are the import-path prefixes where a received
	// context.Context must be propagated (V9), not dropped or shadowed by
	// context.Background/TODO.
	ContextPackages []string
}

// DefaultConfig returns the rule configuration for this repository, with
// module as the module path ("mbplib").
func DefaultConfig(module string) Config {
	return Config{
		RegistryPath:  module + "/internal/predictors/registry",
		PredictorRoot: module + "/internal/predictors",
		ErrorPackages: []string{
			module + "/internal/sbbt",
			module + "/internal/bt9",
			module + "/internal/compress",
			module + "/internal/sim",
		},
		WidthPackages: []string{
			module + "/internal/sbbt",
			module + "/internal/bt9",
		},
		GuardFuncs: []string{"CanonicalAddress"},
		PanicFreePackages: []string{
			module + "/internal/sbbt",
			module + "/internal/bt9",
			module + "/internal/compress",
		},
		ConcurrencyPackages: []string{
			module + "/internal/sim",
			module + "/internal/obs",
			module + "/internal/daemon",
			module + "/cmd",
		},
		ContextPackages: []string{
			module + "/internal/sim",
		},
	}
}

func hasPathPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// sortFindings orders findings by file, line, rule and finally message, so
// a corpus renders in the same byte order on every run.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// directives indexes //mbpvet: comments. Four forms are recognized:
//
//	//mbpvet:impure <justification>
//	//mbpvet:ignore <rule> -- <justification>
//	//mbpvet:panicfree-exempt <justification>
//	//mbpvet:goroutine-exempt <justification>
//
// "impure" is the §IV-A escape hatch: placed in the doc comment of a
// Predict method (or a helper it calls) it suppresses the purity rule for
// that method. "ignore" suppresses the named rule for findings on the same
// line or the line directly below the comment. The "-exempt" directives are
// the dedicated escape hatches of the panicfree and goroutine rules — for
// panics a codec keeps on purpose, and for goroutines whose lifetime is
// deliberately process-long; each covers the same line and the line below.
// All forms demand a non-empty justification; a bare directive is reported
// instead of honored. (The //mbpvet:guardedby annotation is not a
// suppression — it declares a lock-protection contract and is parsed by the
// guardedby rule itself.)
type directives struct {
	// ignore maps file -> line -> set of rule names suppressed there.
	ignore map[string]map[int]map[string]bool
	// impure maps file -> line of the func keyword of an annotated decl.
	impure map[string]map[int]bool
	// exempt maps rule -> file -> lines covered by that rule's dedicated
	// -exempt directive.
	exempt    map[string]map[string]map[int]bool
	malformed []Finding
}

const (
	directiveImpure = "//mbpvet:impure"
	directiveIgnore = "//mbpvet:ignore"
)

// exemptDirectives maps each dedicated escape-hatch directive to the rule
// it suppresses.
var exemptDirectives = map[string]string{
	"//mbpvet:panicfree-exempt": RulePanicFree,
	"//mbpvet:goroutine-exempt": RuleGoroutine,
}

func collectDirectives(prog *Program) *directives {
	d := &directives{
		ignore: make(map[string]map[int]map[string]bool),
		impure: make(map[string]map[int]bool),
		exempt: make(map[string]map[string]map[int]bool),
	}
	for _, pkg := range prog.Sorted() {
		for _, file := range pkg.Files {
			// Impure annotations live in doc comments of function decls.
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Doc != nil && d.scanImpure(prog, fn) {
					pos := prog.Fset.Position(fn.Pos())
					addLine(d.impure, pos.Filename, pos.Line)
				}
			}
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					d.scanExempt(prog, c)
					d.scanIgnore(prog, c)
				}
			}
		}
	}
	return d
}

func addLine(m map[string]map[int]bool, file string, line int) {
	if m[file] == nil {
		m[file] = make(map[int]bool)
	}
	m[file][line] = true
}

// scanImpure reports whether fn's doc comment carries a justified impure
// directive, recording a finding for an unjustified one.
func (d *directives) scanImpure(prog *Program, fn *ast.FuncDecl) bool {
	for _, c := range fn.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, directiveImpure)
		if !ok {
			continue
		}
		if strings.TrimSpace(rest) == "" {
			d.malformed = append(d.malformed, Finding{
				Pos:  prog.Fset.Position(c.Pos()),
				Rule: RulePurity,
				Msg:  "mbpvet:impure directive needs a justification (\"//mbpvet:impure <why>\")",
			})
			continue
		}
		return true
	}
	return false
}

// scanExempt records the dedicated -exempt directives (panicfree-exempt,
// goroutine-exempt) for their own line and the line below, reporting an
// unjustified one instead of honoring it.
func (d *directives) scanExempt(prog *Program, c *ast.Comment) {
	for directive, rule := range exemptDirectives {
		rest, ok := strings.CutPrefix(c.Text, directive)
		if !ok {
			continue
		}
		pos := prog.Fset.Position(c.Pos())
		if strings.TrimSpace(rest) == "" {
			name := strings.TrimPrefix(directive, "//")
			d.malformed = append(d.malformed, Finding{
				Pos:  pos,
				Rule: rule,
				Msg:  fmt.Sprintf("%s directive needs a justification (\"%s <why>\")", name, directive),
			})
			return
		}
		if d.exempt[rule] == nil {
			d.exempt[rule] = make(map[string]map[int]bool)
		}
		addLine(d.exempt[rule], pos.Filename, pos.Line)
		addLine(d.exempt[rule], pos.Filename, pos.Line+1)
		return
	}
}

func (d *directives) scanIgnore(prog *Program, c *ast.Comment) {
	rest, ok := strings.CutPrefix(c.Text, directiveIgnore)
	if !ok {
		return
	}
	rule, why, _ := strings.Cut(strings.TrimSpace(rest), "--")
	rule = strings.TrimSpace(rule)
	pos := prog.Fset.Position(c.Pos())
	if rule == "" || strings.TrimSpace(why) == "" {
		d.malformed = append(d.malformed, Finding{
			Pos:  pos,
			Rule: rule,
			Msg:  "mbpvet:ignore directive needs a rule and justification (\"//mbpvet:ignore <rule> -- <why>\")",
		})
		return
	}
	if d.ignore[pos.Filename] == nil {
		d.ignore[pos.Filename] = make(map[int]map[string]bool)
	}
	for _, line := range []int{pos.Line, pos.Line + 1} {
		if d.ignore[pos.Filename][line] == nil {
			d.ignore[pos.Filename][line] = make(map[string]bool)
		}
		d.ignore[pos.Filename][line][rule] = true
	}
}

// suppressed reports whether an ignore or rule-dedicated -exempt directive
// covers the finding. (Impure annotations are consulted by the purity rule
// itself, since they attach to methods rather than lines.)
func (d *directives) suppressed(f Finding) bool {
	if d.ignore[f.Pos.Filename][f.Pos.Line][f.Rule] {
		return true
	}
	return d.exempt[f.Rule][f.Pos.Filename][f.Pos.Line]
}

// isImpureAnnotated reports whether the function starting at pos carries a
// justified //mbpvet:impure doc directive.
func (d *directives) isImpureAnnotated(fset *token.FileSet, fn *ast.FuncDecl) bool {
	pos := fset.Position(fn.Pos())
	return d.impure[pos.Filename][pos.Line]
}
