package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbplib/internal/bench"
	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/obs"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
)

// TestCmpGlobParallel: a multi-trace glob prints a JSON array in sorted path
// order, identically for -j 1 and -j 4; a single trace keeps the historical
// bare-object format.
func TestCmpGlobParallel(t *testing.T) {
	dir := t.TempDir()
	ts, err := bench.PrepareSuite(dir, "cbp5-train", 1500, bench.Formats{SBBT: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.SBBT) < 2 {
		t.Fatalf("suite too small: %d traces", len(ts.SBBT))
	}
	args := []string{"-trace", filepath.Join(dir, "*.sbbt.mlz"), "-p0", "bimodal", "-p1", "gshare"}

	var seqOut, seqErr bytes.Buffer
	if code := run(append(args, "-j", "1"), &seqOut, &seqErr); code != 0 {
		t.Fatalf("-j 1 exit %d: %s", code, seqErr.String())
	}
	var parOut, parErr bytes.Buffer
	if code := run(append(args, "-j", "4"), &parOut, &parErr); code != 0 {
		t.Fatalf("-j 4 exit %d: %s", code, parErr.String())
	}
	// Zero the per-trace wall clock before comparing: it is the only
	// nondeterministic field.
	normalize := func(out []byte) []byte {
		var arr []map[string]any
		if err := json.Unmarshal(out, &arr); err != nil {
			t.Fatalf("multi-trace output is not a JSON array: %v", err)
		}
		for _, obj := range arr {
			obj["simulation_time"] = 0.0
		}
		norm, err := json.Marshal(arr)
		if err != nil {
			t.Fatal(err)
		}
		return norm
	}
	if !bytes.Equal(normalize(seqOut.Bytes()), normalize(parOut.Bytes())) {
		t.Error("mbpcmp output differs between -j 1 and -j 4")
	}
	var arr []map[string]any
	if err := json.Unmarshal(parOut.Bytes(), &arr); err != nil {
		t.Fatalf("multi-trace output is not a JSON array: %v", err)
	}
	if len(arr) != len(ts.SBBT) {
		t.Errorf("array has %d entries, want %d", len(arr), len(ts.SBBT))
	}

	var one bytes.Buffer
	if code := run([]string{"-trace", ts.SBBT[0], "-p0", "bimodal", "-p1", "gshare"}, &one, &seqErr); code != 0 {
		t.Fatalf("single-trace exit %d: %s", code, seqErr.String())
	}
	var obj map[string]any
	if err := json.Unmarshal(one.Bytes(), &obj); err != nil {
		t.Fatalf("single-trace output is not a JSON object: %v", err)
	}
}

// TestCmpMissingTrace: an unmatched literal path is a run failure (exit 3),
// not a usage error, with the open error on stderr.
func TestCmpMissingTrace(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-trace", filepath.Join(t.TempDir(), "nope.sbbt")}, &out, &errBuf); code != exitTotal {
		t.Errorf("exit = %d, want %d", code, exitTotal)
	}
	if errBuf.Len() == 0 {
		t.Error("no error message on stderr")
	}
}

// TestCmpMetrics: -metrics reports the comparison's simulation — every
// branch of the trace counted once, not once per predictor — and its read
// and sim stages.
func TestCmpMetrics(t *testing.T) {
	dir := t.TempDir()
	ts, err := bench.PrepareSuite(dir, "cbp5-train", 1500, bench.Formats{SBBT: true})
	if err != nil {
		t.Fatal(err)
	}
	trace := ts.SBBT[0]
	f, err := compress.OpenFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sbbt.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	branches := r.Header().TotalBranches
	f.Close()

	metricsFile := filepath.Join(dir, "metrics.json")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-trace", trace, "-p0", "bimodal", "-p1", "gshare", "-metrics", metricsFile}, &out, &errBuf); code != exitOK {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters[obs.CtrEvents.String()]; got != branches {
		t.Errorf("counters.events = %d, want the trace's %d branches", got, branches)
	}
	for _, stage := range []string{"sim", "read"} {
		if snap.Stages[stage].Count == 0 {
			t.Errorf("stage %q not recorded: %s", stage, data)
		}
	}
}

// boomIP is the branch address only the middle trace of
// TestCmpPredictorPanic holds; boomPredictor panics on it.
const boomIP = 0x9000

// boomPredictor predicts not-taken and panics on boomIP.
type boomPredictor struct{}

func (boomPredictor) Predict(ip uint64) bool {
	if ip == boomIP {
		panic("boom")
	}
	return false
}
func (boomPredictor) Train(bp.Branch) {}
func (boomPredictor) Track(bp.Branch) {}

// writeTrace writes a raw SBBT trace of n conditional branches that
// alternate between two addresses from base, each taken every other time.
func writeTrace(t *testing.T, path string, base uint64, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := sbbt.NewWriter(f, uint64(n), uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ip := base + uint64(i%2)*4
		ev := bp.Event{Branch: bp.Branch{IP: ip, Target: ip + 64, Opcode: bp.OpCondJump, Taken: i%4 < 2}}
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCmpPredictorPanic: a predictor panicking on one trace fails that
// comparison alone, as a panic-class failure line, and the others are
// still printed; the command exits 3 instead of crashing.
func TestCmpPredictorPanic(t *testing.T) {
	defer func(orig func(string) func() bp.Predictor) { newFor = orig }(newFor)
	newFor = func(spec string) func() bp.Predictor {
		if spec == "always-taken" {
			return func() bp.Predictor { return boomPredictor{} }
		}
		return sweep.NewFor(spec)
	}
	dir := t.TempDir()
	writeTrace(t, filepath.Join(dir, "a.sbbt"), 0x1000, 500)
	writeTrace(t, filepath.Join(dir, "b.sbbt"), boomIP, 500)
	writeTrace(t, filepath.Join(dir, "c.sbbt"), 0x5000, 500)
	for _, j := range []string{"1", "3"} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-trace", filepath.Join(dir, "*.sbbt"), "-p0", "bimodal", "-p1", "always-taken", "-j", j}, &out, &errBuf)
		if code != exitTotal {
			t.Fatalf("-j %s: exit = %d, want %d (stderr: %s)", j, code, exitTotal, errBuf.String())
		}
		if want := "b.sbbt: [panic] "; !strings.Contains(errBuf.String(), want) {
			t.Errorf("-j %s: stderr %q does not report %q", j, errBuf.String(), want)
		}
		var arr []sim.CompareResult
		if err := json.Unmarshal(out.Bytes(), &arr); err != nil {
			t.Fatalf("-j %s: output is not a JSON array: %v", j, err)
		}
		if len(arr) != 2 || filepath.Base(arr[0].Metadata.Trace) != "a.sbbt" || filepath.Base(arr[1].Metadata.Trace) != "c.sbbt" {
			t.Errorf("-j %s: printed %d comparisons, want those of a.sbbt and c.sbbt: %s", j, len(arr), out.String())
		}
	}
}
