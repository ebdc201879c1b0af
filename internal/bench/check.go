package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// ReadSimSnapshot loads a committed BENCH_sim.json.
func ReadSimSnapshot(path string) (*SimSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading snapshot: %w", err)
	}
	var snap SimSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("bench: parsing snapshot %s: %w", path, err)
	}
	return &snap, nil
}

// CompareSnapshots checks a freshly measured snapshot against a committed
// one and returns one line per stage whose throughput regressed by more than
// factor (e.g. 2 = half the committed branches/sec). The committed absolute
// numbers come from a different machine and trace scale, so only a gross
// regression is meaningful; shared CI runners need the slack.
func CompareSnapshots(committed, fresh *SimSnapshot, factor float64) []string {
	var bad []string
	check := func(stage string, committedBPS, freshBPS float64) {
		if committedBPS <= 0 || freshBPS <= 0 {
			return
		}
		if freshBPS*factor < committedBPS {
			bad = append(bad, fmt.Sprintf("%s: %.3g branches/sec, committed %.3g (>%.1fx regression)",
				stage, freshBPS, committedBPS, factor))
		}
	}
	check("read/batched", committed.Read.Batched.BranchesPerSec, fresh.Read.Batched.BranchesPerSec)
	freshSim := map[string]SimEntry{}
	for _, e := range fresh.Sim {
		freshSim[e.Predictor] = e
	}
	for _, e := range committed.Sim {
		f, ok := freshSim[e.Predictor]
		if !ok {
			continue // predictor set changed; not a regression
		}
		check("sim/"+e.Predictor+"/batched", e.Batched.BranchesPerSec, f.Batched.BranchesPerSec)
		// Kernel stages compare only when both snapshots carry one: the
		// committed side may predate batch kernels, and the fresh side may
		// measure a predictor whose kernel was (deliberately) removed —
		// that change shows up in review, not as a throughput regression.
		if e.Kernel != nil && f.Kernel != nil {
			check("sim/"+e.Predictor+"/kernel", e.Kernel.Batched.BranchesPerSec, f.Kernel.Batched.BranchesPerSec)
		}
	}
	if committed.Journal != nil && fresh.Journal != nil {
		check("journal/journalled", committed.Journal.Journalled.AggBranchesPerSec,
			fresh.Journal.Journalled.AggBranchesPerSec)
	}
	if committed.Sweep != nil && fresh.Sweep != nil {
		freshPar := map[int]SweepMeasurement{}
		for _, m := range fresh.Sweep.Parallel {
			freshPar[m.Workers] = m
		}
		for _, m := range committed.Sweep.Parallel {
			f, ok := freshPar[m.Workers]
			if !ok {
				continue
			}
			check(fmt.Sprintf("sweep/%d-workers", m.Workers), m.AggBranchesPerSec, f.AggBranchesPerSec)
		}
	}
	return bad
}

// CheckError renders CompareSnapshots violations as one error, or nil.
func CheckError(violations []string) error {
	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("bench: throughput regressions:\n  %s", strings.Join(violations, "\n  "))
}
