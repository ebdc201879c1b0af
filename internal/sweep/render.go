package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"mbplib/internal/sim"
)

// ValueRow is one swept value's aggregate in the JSON output.
type ValueRow struct {
	Predictor string  `json:"predictor"`
	AvgMPKI   float64 `json:"avg_mpki"`
	Scored    int     `json:"scored"`
	Traces    int     `json:"traces"`
}

// FailureRow is one failed trace in the JSON output. It deliberately omits
// the panic stack, which is the one field that differs between runs (the
// goroutine dumps name different frames), so the failures section is
// byte-identical for any -j.
// Wall time is likewise omitted from JSON: it differs run to run, and the
// JSON output is the machine-diffable format.
type FailureRow struct {
	Trace     string `json:"trace"`
	Class     string `json:"class"`
	Message   string `json:"message"`
	Attempts  int    `json:"attempts"`
	Resumable bool   `json:"resumable,omitempty"`
}

// Report is the JSON document of a sweep (the -json output of mbpsweep and
// the result payload the daemon stores).
type Report struct {
	Values   []ValueRow   `json:"values"`
	Best     string       `json:"best,omitempty"`
	BestMPKI float64      `json:"best_mpki,omitempty"`
	Failures []FailureRow `json:"failures,omitempty"`
}

// Render prints the sweep table (or JSON) and picks the exit code. It only
// sees per-value SetResults, so local runs at any -j and daemon-side
// schedules produce identical bytes — this is the single renderer behind
// mbpsweep, mbpd and mbpctl.
func Render(stdout, stderr io.Writer, specs []string, sets []*sim.SetResult, nTraces int, jsonOut bool) int {
	bestSpec, bestMPKI := "", 0.0
	failed := map[string]sim.TraceFailure{} // trace name -> first failure seen
	anyScored := false
	rows := make([]ValueRow, len(specs))
	for i, set := range sets {
		for _, f := range set.Failures {
			if _, ok := failed[f.Trace]; !ok {
				failed[f.Trace] = f
			}
		}
		scored, sum := 0, 0.0
		for _, r := range set.Results {
			if r == nil {
				continue
			}
			scored++
			sum += r.Metrics.MPKI
		}
		rows[i] = ValueRow{Predictor: specs[i], Scored: scored, Traces: nTraces}
		if scored == 0 {
			continue
		}
		anyScored = true
		rows[i].AvgMPKI = sum / float64(scored)
		if bestSpec == "" || rows[i].AvgMPKI < bestMPKI {
			bestSpec, bestMPKI = specs[i], rows[i].AvgMPKI
		}
	}
	failNames := make([]string, 0, len(failed))
	for name := range failed {
		failNames = append(failNames, name)
	}
	sort.Strings(failNames)

	if jsonOut {
		failRows := make([]FailureRow, 0, len(failNames))
		for _, name := range failNames {
			f := failed[name]
			failRows = append(failRows, FailureRow{f.Trace, f.Class, f.Message, f.Attempts, f.Resumable})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(Report{rows, bestSpec, bestMPKI, failRows}); err != nil {
			fmt.Fprintln(stderr, "rendering sweep:", err)
			return ExitTotal
		}
	} else {
		fmt.Fprintf(stdout, "%-40s | avg MPKI (traces scored)\n", "predictor")
		fmt.Fprintln(stdout, strings.Repeat("-", 70))
		for _, row := range rows {
			if row.Scored == 0 {
				fmt.Fprintf(stdout, "%-40s | no trace scored\n", row.Predictor)
				continue
			}
			fmt.Fprintf(stdout, "%-40s | %.4f (%d/%d)\n", row.Predictor, row.AvgMPKI, row.Scored, row.Traces)
		}
		fmt.Fprintln(stdout, strings.Repeat("-", 70))
		if bestSpec != "" {
			fmt.Fprintf(stdout, "best: %s (%.4f MPKI)\n", bestSpec, bestMPKI)
		}
		if len(failed) > 0 {
			fmt.Fprintf(stdout, "\n%d failed trace(s), excluded from averages:\n", len(failed))
			fmt.Fprintf(stdout, "%-40s %-10s %-8s %-9s %-9s %s\n", "trace", "class", "attempts", "time", "resumable", "error")
			for _, name := range failNames {
				f := failed[name]
				resumable := "no"
				if f.Resumable {
					resumable = "yes"
				}
				fmt.Fprintf(stdout, "%-40s %-10s %-8d %-9s %-9s %s\n",
					filepath.Base(f.Trace), f.Class, f.Attempts, fmt.Sprintf("%.2fs", f.Seconds), resumable, f.Message)
			}
		}
	}
	anyResumable := false
	for _, f := range failed {
		if f.Resumable {
			anyResumable = true
		}
	}
	switch {
	case len(failed) == 0:
		return ExitOK
	case anyResumable:
		// Drained work is not a verdict: re-running with -resume finishes
		// the rest, so the drained code wins over partial/total.
		return ExitDrained
	case anyScored:
		return ExitPartial
	default:
		return ExitTotal
	}
}
