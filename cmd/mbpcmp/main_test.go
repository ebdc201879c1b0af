package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mbplib/internal/bench"
	"mbplib/internal/compress"
	"mbplib/internal/obs"
	"mbplib/internal/sbbt"
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

// TestAdmitClosedDrain: once the drain is closed, admit hands out nothing,
// even with room to send — a two-way select would pick the send about half
// the time.
func TestAdmitClosedDrain(t *testing.T) {
	drain := make(chan struct{})
	close(drain)
	for trial := 0; trial < 100; trial++ {
		next := make(chan int, 4) // a send is always ready
		if n := admit(next, 4, drain); n != 0 || len(next) != 0 {
			t.Fatalf("trial %d: admitted %d (%d sent) after the drain closed", trial, n, len(next))
		}
	}
}
