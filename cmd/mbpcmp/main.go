// Command mbpcmp runs two predictors in parallel over SBBT traces (the
// comparison simulator of §VI-C of the MBPlib paper) and prints a JSON
// report whose most_failed section lists the branches with the biggest MPKI
// difference — which branches the second predictor handles better, and
// whether any got worse.
//
// Usage:
//
//	mbpcmp -trace t.sbbt.mlz -p0 tage -p1 batage
//	mbpcmp -trace 'traces/*.sbbt.mlz' -p0 tage -p1 batage -j 4
//
// -trace is a glob: a single match prints one JSON object (the historical
// format), several matches print a JSON array in sorted path order, compared
// across -j workers (default GOMAXPROCS) on the scheduler that runs mbprun's
// and mbpsweep's cells (sim.CompareSet). A comparison reads its trace once
// and feeds each decoded batch to both predictors in lockstep, through the
// same simulation loop as mbpsim — batch kernels included — so each worker
// streams its own trace and no decoded-trace cache is involved.
//
// A trace that cannot be compared costs only its own comparison: its error
// goes to stderr with its faults taxonomy class — "[panic]" for a predictor
// or reader that panicked — and the array holds the other comparisons.
//
// SIGINT/SIGTERM drain gracefully: comparisons not yet started are skipped
// and reported as drained ("not started"), in-flight ones finish, and the
// command exits 4; a second signal aborts immediately.
//
// Exit codes: 0 success, 1 usage error, 3 run failure (the stderr message
// carries the faults taxonomy class of a classified trace error), 4 drained
// (interrupted before every comparison ran).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"mbplib/internal/cliflags"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
)

// Exit codes.
const (
	exitOK      = 0
	exitUsage   = 1
	exitTotal   = 3
	exitDrained = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbpcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceGlob = fs.String("trace", "", "SBBT trace file or glob (raw, .gz or .mlz)")
		spec0     = fs.String("p0", "bimodal", "first predictor spec")
		spec1     = fs.String("p1", "gshare", "second predictor spec")
		warmup    = fs.Uint64("warmup", 0, "warm-up instructions")
		simInstr  = fs.Uint64("sim", 0, "instructions to simulate after warm-up (0 = whole trace)")
		mostN     = fs.Int("most-failed", 20, "entries in the most_failed diff report")
		jobs      = fs.Int("j", runtime.GOMAXPROCS(0), "concurrent trace comparisons")
		metricsTo = fs.String("metrics", "", "write a pipeline metrics JSON snapshot to this file ('-' = stderr)")
		progress  = fs.Bool("progress", false, "render a live progress line on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *traceGlob == "" {
		fmt.Fprintln(stderr, "mbpcmp: -trace is required (see -help)")
		return exitUsage
	}
	// The shared validation table, same order and messages as every CLI.
	if err := cliflags.Validate(
		cliflags.Workers(*jobs),
		cliflags.MostFailed(*mostN),
	); err != nil {
		fmt.Fprintln(stderr, "mbpcmp:", err)
		return exitUsage
	}
	// Validate both specs once before fanning out.
	for _, s := range []struct{ name, spec string }{{"p0", *spec0}, {"p1", *spec1}} {
		if _, err := registry.New(s.spec); err != nil {
			fmt.Fprintf(stderr, "mbpcmp: %s: %v\n", s.name, err)
			return exitUsage
		}
	}
	paths, err := filepath.Glob(*traceGlob)
	if err != nil {
		fmt.Fprintln(stderr, "mbpcmp:", err)
		return exitUsage
	}
	if len(paths) == 0 {
		// Not a glob match but maybe a literal path: surface the open error.
		paths = []string{*traceGlob}
	}
	sort.Strings(paths)

	metrics := cliflags.NewMetrics(*metricsTo, *progress, stderr)
	cfg := sim.Config{
		WarmupInstructions: *warmup,
		SimInstructions:    *simInstr,
		MostFailedLimit:    *mostN,
		Metrics:            metrics.Collector(),
	}
	drain, stopSignals := cliflags.DrainOnSignal("mbpcmp", stderr)
	defer stopSignals()
	// Each comparison constructs fresh predictor instances (predictors are
	// stateful) and streams its own trace; results come back index-aligned,
	// so output order is the sorted path order regardless of completion
	// order.
	results, failures, err := sim.CompareSet(sweep.Sources(paths), newFor(*spec0), newFor(*spec1), cfg, *jobs, drain)
	if merr := metrics.Close(); merr != nil {
		fmt.Fprintln(stderr, "mbpcmp:", merr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mbpcmp:", err)
		return exitTotal
	}

	// A drain wins over a failure: the rest can still be run.
	code := exitOK
	ok := make([]*sim.CompareResult, 0, len(results))
	for i, f := range failures {
		switch {
		case f == nil:
			ok = append(ok, results[i])
			continue
		case f.Resumable:
			code = exitDrained
		case code == exitOK:
			code = exitTotal
		}
		if f.Class != "other" {
			fmt.Fprintf(stderr, "mbpcmp: %s: [%s] %v\n", f.Trace, f.Class, f.Err)
		} else {
			fmt.Fprintf(stderr, "mbpcmp: %s: %v\n", f.Trace, f.Err)
		}
	}
	var out any = ok
	if len(paths) == 1 {
		// Historical single-trace format: one bare object.
		if code != exitOK {
			return code
		}
		out = results[0]
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "mbpcmp:", err)
		return exitTotal
	}
	return code
}

// newFor builds the predictor constructor of a validated spec. Tests
// substitute predictors the registry does not offer, such as one that
// panics.
var newFor = sweep.NewFor
