package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

// writeTrace materialises a small generated SBBT trace and returns its path.
func writeTrace(t *testing.T) string {
	t.Helper()
	spec := tracegen.Spec{
		Name: "mbpsim", Seed: 3, Branches: 4000,
		Kernels: []tracegen.KernelSpec{{Kind: tracegen.Biased}, {Kind: tracegen.Loop}},
	}
	instr, branches, err := tracegen.Totals(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := sbbt.NewWriter(&buf, instr, branches)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracegen.WriteSBBT(spec, w.Write); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gen.sbbt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// normalize decodes Listing-1 JSON into a generic value with the wall clock
// zeroed, the one nondeterministic field.
func normalize(t *testing.T, b []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("output is not a JSON object: %v\n%s", err, b)
	}
	metrics, ok := m["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("output has no metrics object:\n%s", b)
	}
	metrics["simulation_time"] = 0.0
	return m
}

// TestSimMatchesRun: the printed JSON is the sim.Run result on the same
// trace and predictor.
func TestSimMatchesRun(t *testing.T) {
	path := writeTrace(t)
	const spec = "gshare:h=12,t=10"
	var out, errBuf bytes.Buffer
	if code := run([]string{"-trace", path, "-predictor", spec, "-warmup", "2000"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}

	p, err := registry.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := sbbt.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(r, p, sim.Config{TraceName: path, WarmupInstructions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := normalize(t, out.Bytes()), normalize(t, want); !reflect.DeepEqual(got, exp) {
		t.Errorf("mbpsim output differs from sim.Run:\ngot  %v\nwant %v", got, exp)
	}
}

// TestSimList: -list prints the registry's predictor names, one per line.
func TestSimList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	want := strings.Join(registry.Names(), "\n") + "\n"
	if out.String() != want {
		t.Errorf("-list printed %q, want %q", out.String(), want)
	}
}

// TestSimMissingTrace: running without -trace is a usage error (exit 2).
func TestSimMissingTrace(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, &out, &errBuf); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr %q)", code, errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout = %q, want empty", out.String())
	}
}

// TestSimNegativeMostFailed: a negative -most-failed cap is a usage error
// (exit 2) naming the flag, not a silent "no cap".
func TestSimNegativeMostFailed(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-trace", writeTrace(t), "-most-failed", "-3"}, &out, &errBuf); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr %q)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "-most-failed must be >= 0") {
		t.Errorf("stderr = %q, want the -most-failed check", errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout = %q, want empty", out.String())
	}
}

// TestSimUnknownPredictor: a spec the registry rejects is a run failure
// (exit 1) reported on stderr.
func TestSimUnknownPredictor(t *testing.T) {
	path := writeTrace(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-trace", path, "-predictor", "nosuchpredictor"}, &out, &errBuf); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.HasPrefix(errBuf.String(), "mbpsim:") {
		t.Errorf("stderr = %q, want an mbpsim: prefix", errBuf.String())
	}
}
