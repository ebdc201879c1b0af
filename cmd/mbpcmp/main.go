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
// across -j workers (default GOMAXPROCS). A comparison reads its trace once
// and feeds each decoded batch to both predictors in lockstep, through the
// same simulation loop as mbpsim — batch kernels included — so each worker
// streams its own trace and no decoded-trace cache is involved.
//
// SIGINT/SIGTERM drain gracefully: comparisons not yet started are skipped
// and reported as drained, in-flight ones finish, and the command exits 4;
// a second signal aborts immediately.
//
// Exit codes: 0 success, 1 usage error, 3 run failure (the stderr message
// carries the faults taxonomy class of a classified trace error), 4 drained
// (interrupted before every comparison ran).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"mbplib/internal/cliflags"
	"mbplib/internal/compress"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
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
	col := metrics.Collector()
	cfgFor := func(path string) sim.Config {
		return sim.Config{
			TraceName:          path,
			WarmupInstructions: *warmup,
			SimInstructions:    *simInstr,
			MostFailedLimit:    *mostN,
			Metrics:            col,
		}
	}

	// Compare every trace across a worker pool. Each comparison constructs
	// fresh predictor instances (predictors are stateful) and streams its own
	// trace; results are collected index-aligned so output order is the
	// sorted path order regardless of completion order.
	col.Ctr(obs.CtrCellsTotal).Store(uint64(len(paths)))
	results := make([]*sim.CompareResult, len(paths))
	errs := make([]error, len(paths))
	workers := *jobs
	if workers > len(paths) {
		workers = len(paths)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		ws := col.Worker(w)
		go func() {
			defer wg.Done()
			for i := range next {
				tCell := col.Now()
				results[i], errs[i] = compareOne(paths[i], *spec0, *spec1, cfgFor(paths[i]))
				cellDur := col.Now().Sub(tCell)
				ws.Record(cellDur)
				col.Hist(obs.HistCellNs).ObserveDuration(cellDur)
				col.Ctr(obs.CtrCellsDone).Add(1)
			}
		}()
	}
	drain, stopSignals := cliflags.DrainOnSignal("mbpcmp", stderr)
	defer stopSignals()
	// Draining: in-flight comparisons finish, the rest never start.
	for i := admit(next, len(paths), drain); i < len(paths); i++ {
		errs[i] = fmt.Errorf("not started: %w", faults.ErrDrained)
	}
	close(next)
	wg.Wait()
	if err := metrics.Close(); err != nil {
		fmt.Fprintln(stderr, "mbpcmp:", err)
	}

	failed, drained := 0, 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if errors.Is(err, faults.ErrDrained) {
			drained++
		}
		if class := faults.Class(err); class != "other" {
			fmt.Fprintf(stderr, "mbpcmp: %s: [%s] %v\n", paths[i], class, err)
		} else {
			fmt.Fprintf(stderr, "mbpcmp: %s: %v\n", paths[i], err)
		}
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if len(paths) == 1 {
		// Historical single-trace format: one bare object.
		if errs[0] != nil {
			if drained > 0 {
				return exitDrained
			}
			return exitTotal
		}
		if err := enc.Encode(results[0]); err != nil {
			fmt.Fprintln(stderr, "mbpcmp:", err)
			return exitTotal
		}
		return exitOK
	}
	ok := make([]*sim.CompareResult, 0, len(results))
	for _, r := range results {
		if r != nil {
			ok = append(ok, r)
		}
	}
	if err := enc.Encode(ok); err != nil {
		fmt.Fprintln(stderr, "mbpcmp:", err)
		return exitTotal
	}
	if drained > 0 {
		return exitDrained
	}
	if failed > 0 {
		return exitTotal
	}
	return exitOK
}

// admit hands the indices 0..n-1 to next in order until drain closes and
// returns how many it handed out. The drain is checked first, so once it is
// closed nothing more is admitted, even with a worker ready to receive.
func admit(next chan<- int, n int, drain <-chan struct{}) int {
	for i := 0; i < n; i++ {
		select {
		case <-drain:
			return i
		default:
		}
		select {
		case next <- i:
		case <-drain:
			return i
		}
	}
	return n
}

// compareOne opens one trace and compares fresh instances of the two
// predictors over it.
func compareOne(tracePath, spec0, spec1 string, cfg sim.Config) (*sim.CompareResult, error) {
	p0, err := registry.New(spec0)
	if err != nil {
		return nil, err
	}
	p1, err := registry.New(spec1)
	if err != nil {
		return nil, err
	}
	f, err := compress.OpenFile(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := sbbt.NewReader(f)
	if err != nil {
		return nil, err
	}
	return sim.Compare(r, p0, p1, cfg)
}
