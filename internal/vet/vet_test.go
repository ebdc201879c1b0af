package vet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureConfig mirrors DefaultConfig for the testdata module.
func fixtureConfig() Config {
	return Config{
		RegistryPath:        "fix/predictors/registry",
		PredictorRoot:       "fix/predictors",
		ErrorPackages:       []string{"fix/codec", "fix/journal"},
		WidthPackages:       []string{"fix/codec"},
		GuardFuncs:          []string{"CanonicalAddress"},
		PanicFreePackages:   []string{"fix/codec"},
		ConcurrencyPackages: []string{"fix/conc"},
		ContextPackages:     []string{"fix/conc"},
	}
}

// fixtureMarkers scans the fixture sources for `// want <rule>` markers
// (keep is nil for all rules) and returns file:line -> expected rules plus
// the set of rules that have at least one marker.
func fixtureMarkers(prog *Program, keep map[string]bool) (want map[string][]string, rulesSeen map[string]bool) {
	want = make(map[string][]string)
	rulesSeen = make(map[string]bool)
	for _, pkg := range prog.Sorted() {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
					for _, rule := range strings.Fields(rest) {
						if keep != nil && !keep[rule] {
							continue
						}
						want[key] = append(want[key], rule)
						rulesSeen[rule] = true
					}
				}
			}
		}
	}
	return want, rulesSeen
}

// checkAgainstMarkers demands an exact match between findings and markers:
// every marker line produces exactly its rules, and no finding is unwanted.
func checkAgainstMarkers(t *testing.T, want map[string][]string, findings []Finding) {
	t.Helper()
	got := make(map[string][]string)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		got[key] = append(got[key], f.Rule)
	}
	for key, rules := range want {
		sort.Strings(rules)
		gotRules := append([]string(nil), got[key]...)
		sort.Strings(gotRules)
		if strings.Join(rules, ",") != strings.Join(gotRules, ",") {
			t.Errorf("%s: want findings %v, got %v", key, rules, gotRules)
		}
	}
	for key, rules := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unwanted findings %v", key, rules)
		}
	}
}

// TestFixtureRules loads the fixture module and checks the findings against
// the `// want <rule>` markers embedded in the sources: every marker must
// produce a finding on its line, and every finding must be wanted. The
// fixture contains a violating and a conforming case for each of V1-V5.
func TestFixtureRules(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "fix"), "fix")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	legacy := map[string]bool{
		RulePurity: true, RuleRegistry: true, RuleDroppedErr: true,
		RuleBitWidth: true, RulePanicFree: true,
	}
	want, rulesSeen := fixtureMarkers(prog, legacy)
	for rule := range legacy {
		if !rulesSeen[rule] {
			t.Errorf("fixture has no want marker for rule %s", rule)
		}
	}
	findings, err := RunAnalyzers(prog, fixtureConfig(), []string{RulePurity, RuleRegistry, RuleDroppedErr, RuleBitWidth, RulePanicFree})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstMarkers(t, want, findings)
}

// TestFixtureRulesAnalyzers runs all nine rules through the analyzer driver
// over the same fixture module and checks every marker, including the
// V6-V9 concurrency fixtures TestFixtureRules leaves out.
func TestFixtureRulesAnalyzers(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "fix"), "fix")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	findings, err := RunAnalyzers(prog, fixtureConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, rulesSeen := fixtureMarkers(prog, nil)
	for _, rule := range AllRules() {
		if !rulesSeen[rule] {
			t.Errorf("fixture has no want marker for rule %s", rule)
		}
	}
	checkAgainstMarkers(t, want, findings)
}

// TestEveryRuleHasFixtures is the corpus meta-test: each of the nine rules
// must keep at least one violating fixture line (`// want <rule>`) and one
// conforming counterpart (a `// negative <rule>` comment), so a regressed
// rule cannot pass by matching nothing.
func TestEveryRuleHasFixtures(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "fix"), "fix")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	_, positives := fixtureMarkers(prog, nil)
	negatives := make(map[string]bool)
	for _, pkg := range prog.Sorted() {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if rest, ok := strings.CutPrefix(c.Text, "// negative "); ok {
						for _, rule := range strings.Fields(rest) {
							negatives[rule] = true
						}
					}
				}
			}
		}
	}
	for _, rule := range AllRules() {
		if !positives[rule] {
			t.Errorf("rule %s has no positive fixture (`// want %s` marker)", rule, rule)
		}
		if !negatives[rule] {
			t.Errorf("rule %s has no negative fixture (`// negative %s` comment)", rule, rule)
		}
	}
}

// TestRepositoryIsClean runs the analyzer over this repository with the
// production configuration — the same invocation CI uses — and demands
// zero findings. Any genuine violation added to the tree fails this test
// before it fails CI.
func TestRepositoryIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	module, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, module)
	if err != nil {
		t.Fatalf("loading %s: %v", root, err)
	}
	findings, err := RunAnalyzers(prog, DefaultConfig(module), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected analyzer finding: %s", f)
	}
}

// TestDirectivesRequireJustification checks that a bare suppression is not
// honored: the original finding survives and the malformed directive is
// itself reported.
func TestDirectivesRequireJustification(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "codec/codec.go", `
// Package codec is a directive-test fixture.
package codec

import "io"

// Drop discards an error under an unjustified suppression.
func Drop(w io.Writer) {
	//mbpvet:ignore droppederr
	w.Write(nil)
}
`)
	prog, err := Load(dir, "tmpfix")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ErrorPackages: []string{"tmpfix/codec"}}
	findings, err := RunAnalyzers(prog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (malformed directive + surviving droppederr), got %v", findings)
	}
	var haveMalformed, haveDropped bool
	for _, f := range findings {
		if strings.Contains(f.Msg, "needs a rule and justification") {
			haveMalformed = true
		}
		if f.Rule == RuleDroppedErr && strings.Contains(f.Msg, "discarded") {
			haveDropped = true
		}
	}
	if !haveMalformed || !haveDropped {
		t.Errorf("findings missing expected pair: %v", findings)
	}
}

// TestPanicFreeExemptRequiresJustification checks the panicfree escape
// hatch: a bare //mbpvet:panicfree-exempt is reported as malformed and the
// panic finding it tried to cover survives.
func TestPanicFreeExemptRequiresJustification(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "codec/codec.go", `
// Package codec is a directive-test fixture.
package codec

// Decode panics under an unjustified exemption.
func Decode(b []byte) byte {
	if len(b) == 0 {
		//mbpvet:panicfree-exempt
		panic("empty")
	}
	return b[0]
}
`)
	prog, err := Load(dir, "tmpfix")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{PanicFreePackages: []string{"tmpfix/codec"}}
	findings, err := RunAnalyzers(prog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (malformed directive + surviving panicfree), got %v", findings)
	}
	var haveMalformed, havePanic bool
	for _, f := range findings {
		if strings.Contains(f.Msg, "needs a justification") {
			haveMalformed = true
		}
		if f.Rule == RulePanicFree && strings.Contains(f.Msg, "untrusted input") {
			havePanic = true
		}
	}
	if !haveMalformed || !havePanic {
		t.Errorf("findings missing expected pair: %v", findings)
	}
}

// TestImpureDirectiveRequiresJustification mirrors the check for the
// purity escape hatch.
func TestImpureDirectiveRequiresJustification(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "pred/pred.go", `
// Package pred is a directive-test fixture.
package pred

// B is the branch stub.
type B struct{ Taken bool }

// P caches in Predict without justifying it.
type P struct{ last uint64 }

// Predict is annotated but the annotation carries no reason.
//
//mbpvet:impure
func (p *P) Predict(ip uint64) bool { p.last = ip; return true }

// Train implements the contract.
func (p *P) Train(b B) {}

// Track implements the contract.
func (p *P) Track(b B) {}
`)
	prog, err := Load(dir, "tmpfix")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(prog, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var haveMalformed, havePurity bool
	for _, f := range findings {
		if strings.Contains(f.Msg, "needs a justification") {
			haveMalformed = true
		}
		if f.Rule == RulePurity && strings.Contains(f.Msg, "mutates predictor state") {
			havePurity = true
		}
	}
	if !haveMalformed || !havePurity {
		t.Errorf("want malformed-directive and purity findings, got %v", findings)
	}
}

func writeFixture(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.TrimPrefix(content, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPurityCrossPackage covers purity across a package boundary, where
// callee summaries and embedded Predict methods resolve through facts
// exported by the defining package: an impure Predict promoted through
// embedding is reported at its declaration, a justified //mbpvet:impure
// travels with it, and a call to an imported writing method taints the
// caller while an imported reader does not.
func TestPurityCrossPackage(t *testing.T) {
	dir := t.TempDir()
	base := `
// Package base defines predictor parts embedded by another package.
package base

// B is the branch stub.
type B struct{ Taken bool }

// Core writes in Predict; without Train/Track it is not a predictor itself.
type Core struct{ last uint64 }

// Predict records the queried address.
func (c *Core) Predict(ip uint64) bool { c.last = ip; return true }

// Memo memoizes its last query on purpose.
type Memo struct{ last uint64 }

// Predict caches the query.
//
//mbpvet:impure the cached address never changes the prediction
func (m *Memo) Predict(ip uint64) bool { m.last = ip; return true }

// Counter is a helper with one writing and one reading method.
type Counter struct{ n int }

// Touch bumps the counter.
func (c *Counter) Touch() { c.n++ }

// Peek reads the counter.
func (c *Counter) Peek() int { return c.n }
`
	pred := `
// Package pred builds predictors from the parts in base.
package pred

import "tmpfix/base"

// W inherits the writing Predict of base.Core.
type W struct{ base.Core }

// Train implements the contract.
func (w *W) Train(b base.B) {}

// Track implements the contract.
func (w *W) Track(b base.B) {}

// M inherits the justified impure Predict of base.Memo.
type M struct{ base.Memo }

// Train implements the contract.
func (m *M) Train(b base.B) {}

// Track implements the contract.
func (m *M) Track(b base.B) {}

// T calls a writing method of an imported type from Predict.
type T struct{ c base.Counter }

// Predict bumps the embedded counter.
func (t *T) Predict(ip uint64) bool { t.c.Touch(); return true }

// Train implements the contract.
func (t *T) Train(b base.B) {}

// Track implements the contract.
func (t *T) Track(b base.B) {}

// R calls a reading method of an imported type from Predict.
type R struct{ c base.Counter }

// Predict reads the counter.
func (r *R) Predict(ip uint64) bool { return r.c.Peek() > 0 }

// Train implements the contract.
func (r *R) Train(b base.B) {}

// Track implements the contract.
func (r *R) Track(b base.B) {}
`
	writeFixture(t, dir, "base/base.go", base)
	writeFixture(t, dir, "pred/pred.go", pred)
	prog, err := Load(dir, "tmpfix")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(prog, Config{}, []string{RulePurity})
	if err != nil {
		t.Fatal(err)
	}
	lineOf := func(src, needle string) int {
		before, _, ok := strings.Cut(strings.TrimPrefix(src, "\n"), needle)
		if !ok {
			t.Fatalf("fixture lacks %q", needle)
		}
		return strings.Count(before, "\n") + 1
	}
	want := []string{
		fmt.Sprintf("base.go:%d: Predict of W", lineOf(base, "func (c *Core) Predict")),
		fmt.Sprintf("pred.go:%d: Predict of T", lineOf(pred, "func (t *T) Predict")),
	}
	var got []string
	for _, f := range findings {
		if f.Rule != RulePurity {
			t.Errorf("unexpected rule %s: %s", f.Rule, f)
			continue
		}
		subject, _, _ := strings.Cut(f.Msg, " mutates")
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, subject))
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s\nall: %v", strings.Join(got, "\n"), strings.Join(want, "\n"), findings)
	}
}
