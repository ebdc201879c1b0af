package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbplib/internal/obs"
	"mbplib/internal/sbbt"
	"mbplib/internal/tracegen"
)

// writeHealthyTrace materialises one synthetic trace as an SBBT file.
func writeHealthyTrace(t *testing.T, path string, spec tracegen.Spec) {
	t.Helper()
	instr, branches, err := tracegen.Totals(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tracegen.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := sbbt.NewWriter(f, instr, branches)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := g.Read()
		if err != nil {
			break
		}
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepMetricsAndProgress is the acceptance criterion of the
// observability layer: on a 4 traces × 4 values matrix, -metrics -progress
// must leave stdout byte-identical to an uninstrumented run while the
// metrics JSON carries non-zero stage timings, cache hit/miss counts and
// per-worker utilisation, and the progress line lands on stderr.
func TestSweepMetricsAndProgress(t *testing.T) {
	dir := t.TempDir()
	specs, err := tracegen.Suite("cbp5-train", 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs[:4] {
		writeHealthyTrace(t, filepath.Join(dir, spec.Name+".sbbt"), spec)
	}
	base := []string{
		"-traces", filepath.Join(dir, "*.sbbt"),
		"-predictor", "gshare:t=12,h=%d", "-from", "4", "-to", "7",
		"-j", "4", "-json",
	}

	var plainOut, plainErr bytes.Buffer
	if code := run(base, &plainOut, &plainErr); code != exitOK {
		t.Fatalf("plain run exit = %d (stderr: %s)", code, plainErr.String())
	}

	metricsPath := filepath.Join(dir, "metrics.json")
	var out, errBuf bytes.Buffer
	args := append(append([]string{}, base...), "-metrics", metricsPath, "-progress")
	if code := run(args, &out, &errBuf); code != exitOK {
		t.Fatalf("instrumented run exit = %d (stderr: %s)", code, errBuf.String())
	}

	if !bytes.Equal(plainOut.Bytes(), out.Bytes()) {
		t.Errorf("-metrics -progress changed stdout\nplain:\n%s\ninstrumented:\n%s",
			plainOut.String(), out.String())
	}
	if !strings.Contains(errBuf.String(), "16/16 cells") {
		t.Errorf("stderr missing final progress line: %q", errBuf.String())
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("reading metrics file: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not a snapshot: %v\n%s", err, data)
	}
	if snap.Version != obs.SnapshotVersion {
		t.Errorf("metrics_version = %d, want %d", snap.Version, obs.SnapshotVersion)
	}
	for _, stage := range []string{"read", "sim"} {
		if s := snap.Stages[stage]; s.Count == 0 || s.Seconds <= 0 {
			t.Errorf("stage %q = %+v, want non-zero time", stage, s)
		}
	}
	// 4 traces × 4 values: the four values of a trace are lanes of one
	// reading, so a local sweep has no cache to hit or miss.
	if got := snap.Counters["cache_misses"]; got != 0 {
		t.Errorf("cache_misses = %d, want 0", got)
	}
	if got := snap.Counters["cache_hits"]; got != 0 {
		t.Errorf("cache_hits = %d, want 0", got)
	}
	if snap.Counters["cells_done"] != 16 || snap.Counters["cells_total"] != 16 {
		t.Errorf("cells = %d/%d, want 16/16",
			snap.Counters["cells_done"], snap.Counters["cells_total"])
	}
	if snap.Counters["events"] == 0 {
		t.Error("no events counted")
	}
	if len(snap.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(snap.Workers))
	}
	var cells uint64
	var busy, util float64
	for _, w := range snap.Workers {
		cells += w.Cells
		busy += w.BusySeconds
		util += w.Utilization
	}
	if cells != 16 {
		t.Errorf("worker cells sum = %d, want 16", cells)
	}
	if busy <= 0 || util <= 0 {
		t.Errorf("no worker utilisation recorded: %+v", snap.Workers)
	}
}

// TestSweepMetricsToStderr: '-metrics -' interleaves nothing with stdout —
// the snapshot goes to stderr and stdout stays byte-identical.
func TestSweepMetricsToStderr(t *testing.T) {
	dir := t.TempDir()
	specs, err := tracegen.Suite("cbp5-train", 1000)
	if err != nil {
		t.Fatal(err)
	}
	writeHealthyTrace(t, filepath.Join(dir, specs[0].Name+".sbbt"), specs[0])
	base := []string{
		"-traces", filepath.Join(dir, "*.sbbt"),
		"-predictor", "gshare:t=12,h=%d", "-from", "4", "-to", "5", "-j", "2",
	}
	var plainOut, plainErr bytes.Buffer
	if code := run(base, &plainOut, &plainErr); code != exitOK {
		t.Fatalf("plain run exit = %d (stderr: %s)", code, plainErr.String())
	}
	var out, errBuf bytes.Buffer
	if code := run(append(append([]string{}, base...), "-metrics", "-"), &out, &errBuf); code != exitOK {
		t.Fatalf("instrumented run exit = %d (stderr: %s)", code, errBuf.String())
	}
	if !bytes.Equal(plainOut.Bytes(), out.Bytes()) {
		t.Errorf("-metrics - changed stdout")
	}
	if !strings.Contains(errBuf.String(), `"metrics_version": 1`) {
		t.Errorf("stderr missing metrics snapshot: %q", errBuf.String())
	}
}
