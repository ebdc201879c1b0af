package main

import (
	"path/filepath"
	"testing"

	"mbplib/internal/bench"
)

// TestRunTable: one table regenerates at a tiny scale into the given
// directory.
func TestRunTable(t *testing.T) {
	dir := t.TempDir()
	if err := run("1", 300, dir, 0); err != nil {
		t.Fatal(err)
	}
	traces, err := filepath.Glob(filepath.Join(dir, "*.sbbt.mlz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Error("table I wrote no SBBT traces into its directory")
	}
}

// TestRunCheckAgainstFreshSnapshot: a snapshot written at a tiny scale
// passes -sim-check at the same scale. The pipeline is what is checked here,
// not throughput, so the allowed factor is wide enough that timing noise on
// a loaded host cannot fail it.
func TestRunCheckAgainstFreshSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "snap.json")
	const scale, preds, sweepPreds = 2000, "bimodal,gshare", "bimodal,gshare"
	if err := runSnapshot(snap, scale, t.TempDir(), preds, sweepPreds, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.ReadSimSnapshot(snap); err != nil {
		t.Fatalf("the written snapshot does not read back: %v", err)
	}
	if err := runCheck(snap, scale, t.TempDir(), preds, sweepPreds, 2, 1, 1000); err != nil {
		t.Fatal(err)
	}
}
