package vet

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden output files")

// fixtureFindings loads the fixture corpus through the analyzer driver and
// returns the findings plus the absolute root the output paths are
// relative to.
func fixtureFindings(t *testing.T) ([]Finding, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "fix"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, "fix")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	findings, err := RunAnalyzers(prog, fixtureConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return findings, root
}

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenJSON locks the -json rendering of the full fixture corpus.
func TestGoldenJSON(t *testing.T) {
	findings, root := fixtureFindings(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, findings, root); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "findings.json", buf.Bytes())
}

// TestMessagesCheckoutIndependent: no finding message quotes the absolute
// module root, so the golden files hold in any checkout.
func TestMessagesCheckoutIndependent(t *testing.T) {
	findings, root := fixtureFindings(t)
	for _, f := range findings {
		if strings.Contains(f.Msg, root) || strings.Contains(f.Msg, filepath.ToSlash(root)) {
			t.Errorf("%s: message quotes the checkout path %s: %s", f.Rule, root, f.Msg)
		}
	}
}

// TestGoldenSARIF locks the -sarif rendering of the full fixture corpus.
func TestGoldenSARIF(t *testing.T) {
	findings, root := fixtureFindings(t)
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, root); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "findings.sarif", buf.Bytes())
}

// TestSARIFStructure validates the SARIF document against the structural
// requirements of the 2.1.0 spec that code-scanning consumers rely on:
// schema URI and version, tool metadata with the full rule catalogue, and
// per-result ruleIndex/location invariants. (An offline container cannot
// run the official JSON-schema validator; these are the load-bearing
// constraints it would check.)
func TestSARIFStructure(t *testing.T) {
	findings, root := fixtureFindings(t)
	if len(findings) == 0 {
		t.Fatal("fixture corpus produced no findings; SARIF structure test is vacuous")
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, root); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
			ColumnKind string `json:"columnKind"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc.Schema != sarifSchema {
		t.Errorf("$schema = %q, want %q", doc.Schema, sarifSchema)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "mbpvet" {
		t.Errorf("tool name = %q, want mbpvet", run.Tool.Driver.Name)
	}
	if run.ColumnKind != "utf16CodeUnits" {
		t.Errorf("columnKind = %q, want utf16CodeUnits", run.ColumnKind)
	}
	if len(run.Tool.Driver.Rules) != len(AllRules()) {
		t.Errorf("rule catalogue has %d entries, want %d", len(run.Tool.Driver.Rules), len(AllRules()))
	}
	for i, r := range run.Tool.Driver.Rules {
		if r.ID != AllRules()[i] {
			t.Errorf("rule %d id = %q, want %q", i, r.ID, AllRules()[i])
		}
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no shortDescription", r.ID)
		}
	}
	if len(run.Results) != len(findings) {
		t.Errorf("results = %d, want %d", len(run.Results), len(findings))
	}
	for i, res := range run.Results {
		if res.Level != "error" {
			t.Errorf("result %d level = %q, want error", i, res.Level)
		}
		if res.Message.Text == "" {
			t.Errorf("result %d has an empty message", i)
		}
		if res.RuleIndex >= 0 {
			if res.RuleIndex >= len(AllRules()) || AllRules()[res.RuleIndex] != res.RuleID {
				t.Errorf("result %d ruleIndex %d does not match ruleId %q", i, res.RuleIndex, res.RuleID)
			}
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("result %d uriBaseId = %q, want %%SRCROOT%%", i, loc.ArtifactLocation.URIBaseID)
		}
		if strings.Contains(loc.ArtifactLocation.URI, "\\") || filepath.IsAbs(loc.ArtifactLocation.URI) {
			t.Errorf("result %d uri %q is not a relative forward-slash path", i, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine < 1 {
			t.Errorf("result %d startLine = %d, want >= 1", i, loc.Region.StartLine)
		}
	}
}

// TestApplyFixes exercises the -fix pipeline on a throwaway module: the
// atomic and ctxprop suggested fixes must rewrite the sources so that a
// re-run reports nothing.
func TestApplyFixes(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "sim/sim.go", `
// Package sim is the autofix fixture.
package sim

import (
	"context"
	"sync/atomic"
)

// Counter mixes atomic and plain access.
type Counter struct {
	n uint64
}

// Add is atomic.
func (c *Counter) Add() { atomic.AddUint64(&c.n, 1) }

// Get reads plainly; the fix rewrites it to atomic.LoadUint64.
func (c *Counter) Get() uint64 { return c.n }

// Reset writes plainly; the fix rewrites it to atomic.StoreUint64.
func (c *Counter) Reset() { c.n = 0 }

// Wait detaches its context; the fix substitutes the parameter.
func Wait(ctx context.Context) error {
	return block(context.Background())
}

func block(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}
`)
	cfg := Config{
		ConcurrencyPackages: []string{"tmpfix/sim"},
		ContextPackages:     []string{"tmpfix/sim"},
	}
	prog, err := Load(dir, "tmpfix")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(prog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fixable := 0
	for _, f := range findings {
		if f.Fix != nil {
			fixable++
		}
	}
	if fixable != 3 {
		t.Fatalf("want 3 fixable findings (load, store, context), got %d of %d: %v", fixable, len(findings), findings)
	}
	changed, err := ApplyFixes(prog.Fset, findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || filepath.Base(changed[0]) != "sim.go" {
		t.Fatalf("changed files = %v, want exactly sim.go", changed)
	}
	src, err := os.ReadFile(filepath.Join(dir, "sim", "sim.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"atomic.LoadUint64(&c.n)", "atomic.StoreUint64(&c.n, 0)", "block(ctx)"} {
		if !strings.Contains(string(src), want) {
			t.Errorf("fixed source missing %q:\n%s", want, src)
		}
	}
	reprog, err := Load(dir, "tmpfix")
	if err != nil {
		t.Fatalf("fixed module no longer loads: %v", err)
	}
	refindings, err := RunAnalyzers(reprog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(refindings) != 0 {
		t.Errorf("findings survive the fixes: %v", refindings)
	}
}

// TestRunAnalyzersUnknownRule pins the rule-selection error contract the
// CLI exit code depends on.
func TestRunAnalyzersUnknownRule(t *testing.T) {
	root, err0 := filepath.Abs(filepath.Join("testdata", "fix"))
	if err0 != nil {
		t.Fatal(err0)
	}
	prog, err := Load(root, "fix")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunAnalyzers(prog, fixtureConfig(), []string{"nosuchrule"})
	var unknown *UnknownRuleError
	if !errors.As(err, &unknown) {
		t.Fatalf("RunAnalyzers(unknown rule) error = %v, want *UnknownRuleError", err)
	}
	if !strings.Contains(err.Error(), "nosuchrule") {
		t.Errorf("error %q does not name the bad rule", err)
	}
	if got, err := RunAnalyzers(prog, fixtureConfig(), []string{"v7"}); err != nil {
		t.Fatal(err)
	} else {
		for _, f := range got {
			if f.Rule != RuleGuardedBy {
				t.Errorf("rules [v7] produced a %s finding: %s", f.Rule, f)
			}
		}
	}
}
