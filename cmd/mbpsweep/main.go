// Command mbpsweep measures how a predictor's MPKI varies with one integer
// parameter across a set of traces — the parameter-optimization use case of
// §VI-A of the MBPlib paper. The CMake for-loop of Listing 3, which builds
// one executable per parameter value, becomes a flag:
//
//	mbpsweep -traces 'traces/*.sbbt.mlz' -predictor 'gshare:t=18,h=%d' -from 6 -to 30
//
// The predictor spec contains a %d placeholder that receives each swept
// value; the output is one row per value with the average MPKI.
//
// With -j N (default GOMAXPROCS) the value × trace matrix is scheduled
// across N workers trace by trace: the swept values of a trace run as lanes
// of one stream, so each trace is read and decoded once and scored by
// every value in that one reading. With fewer traces than workers, a
// trace's values split into ceil(N / traces) groups, each reading the
// trace once. -j 1 is the same scheduler with one worker. Output is
// byte-identical at every -j.
//
// Each value's trace set runs through the sim fault policy: with -policy
// skip, traces that fail to decode (or whose predictor panics) are excluded
// from that value's average and reported once in a failure table at the end,
// classified by the faults taxonomy. Transient open errors can be retried
// with -retries and -retry-backoff.
//
// With -resume DIR the sweep is crash-safe: every finished (value, trace)
// cell is appended to a durable journal in DIR before the sweep moves on,
// and a re-run with the same flags replays finished cells instead of
// simulating them. -checkpoint-every N additionally snapshots in-flight
// cells of checkpointable predictors every N events, so an interrupted cell
// resumes mid-trace. SIGINT/SIGTERM drain gracefully: no new cells start,
// in-flight cells checkpoint, and unfinished work is reported as resumable
// (exit code 4); a second signal aborts immediately. -cell-timeout bounds
// each cell's time — its trace's shared reading time plus its own
// simulation; a blown deadline is a final, journalled failure.
//
// The same sweep can run remotely: mbpd executes submitted specs through
// the identical internal/sweep pipeline, and `mbpctl submit`/`mbpctl wait`
// return byte-identical result JSON to a local mbpsweep run.
//
// Exit codes: 0 success, 1 usage error, 2 partial failure (some traces
// failed but every value still scored), 3 total failure, 4 drained (the
// run was interrupted; re-run with -resume to finish the rest).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mbplib/internal/cliflags"
	"mbplib/internal/faults"
	"mbplib/internal/prof"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sweep"
)

// Exit codes (shared with the daemon path via internal/sweep).
const (
	exitOK      = sweep.ExitOK
	exitUsage   = sweep.ExitUsage
	exitPartial = sweep.ExitPartial
	exitTotal   = sweep.ExitTotal
	exitDrained = sweep.ExitDrained
)

// Row types are shared with the daemon renderer.
type (
	valueRow   = sweep.ValueRow
	failureRow = sweep.FailureRow
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbpsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		globs      = fs.String("traces", "", "glob of SBBT trace files")
		predSpec   = fs.String("predictor", "gshare:t=18,h=%d", "predictor spec with a %d placeholder")
		from       = fs.Int("from", 6, "first swept value")
		to         = fs.Int("to", 30, "last swept value")
		step       = fs.Int("step", 1, "sweep step")
		jobs       = fs.Int("j", runtime.GOMAXPROCS(0), "scheduler workers over the value × trace matrix")
		jsonOut    = fs.Bool("json", false, "print the sweep as JSON")
		metricsTo  = fs.String("metrics", "", "write a pipeline metrics JSON snapshot to this file ('-' = stderr)")
		progress   = fs.Bool("progress", false, "render a live progress line on stderr")
		policyName = fs.String("policy", "failfast", "per-trace failure policy: failfast or skip")
		retries    = fs.Int("retries", 0, "retry transient trace-open failures this many times")
		backoff    = fs.Duration("retry-backoff", 100*time.Millisecond, "delay before the first retry (doubles per attempt)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		resume     = fs.String("resume", "", "journal directory for crash-safe, resumable sweeps")
		ckptEvery  = fs.Uint64("checkpoint-every", cliflags.DefaultCheckpointEvery, "events between in-flight cell checkpoints (with -resume; 0 disables)")
		cellTime   = fs.Duration("cell-timeout", 0, "time budget per (value, trace) cell: its trace's shared reading time plus its own simulation (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *globs == "" {
		fmt.Fprintln(stderr, "mbpsweep: -traces is required (see -help)")
		return exitUsage
	}
	// The whole validation table runs before any side effect (profiles,
	// journal directories), so a usage error never leaves files behind.
	if err := cliflags.Validate(
		cliflags.Workers(*jobs),
		cliflags.CellTimeout(*cellTime),
		cliflags.ResumeOptions(*resume, cliflags.FlagWasSet(fs, "checkpoint-every")),
		cliflags.PolicyName(*policyName),
		cliflags.Retries(*retries),
	); err != nil {
		fmt.Fprintln(stderr, "mbpsweep:", err)
		return exitUsage
	}
	spec := sweep.Spec{
		Traces: *globs, Predictor: *predSpec,
		From: *from, To: *to, Step: *step,
		Policy: *policyName, Retries: *retries,
	}.Normalized()
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "mbpsweep:", err)
		return exitUsage
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "mbpsweep:", err)
		return exitUsage
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "mbpsweep:", err)
		}
	}()
	resolved, err := spec.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, "mbpsweep:", err)
		return exitUsage
	}
	mode, err := spec.Mode()
	if err != nil {
		fmt.Fprintln(stderr, "mbpsweep:", err)
		return exitUsage
	}
	policy := sim.Policy{Mode: mode, Retries: *retries, Backoff: *backoff}

	// A resume journal keys cells by trace content digest, so a renamed or
	// moved trace file still replays; an unreadable file falls back to its
	// path (the open will fail properly during the sweep).
	var jnl *journal.Journal
	if *resume != "" {
		if jnl, err = journal.Open(*resume); err != nil {
			fmt.Fprintln(stderr, "mbpsweep: opening resume journal:", err)
			return exitUsage
		}
		resolved.AttachDigests()
	}

	// Compute: one SetResult per swept value. Results and failure tables are
	// deterministic and identical at every -j — metrics collection only
	// observes, so -metrics/-progress never change stdout.
	metrics := cliflags.NewMetrics(*metricsTo, *progress, stderr)
	closeMetrics := func() {
		if err := metrics.Close(); err != nil {
			fmt.Fprintln(stderr, "mbpsweep:", err)
		}
	}
	drain, stopSignals := cliflags.DrainOnSignal("mbpsweep", stderr)
	defer stopSignals()
	sets, err := resolved.Run(sweep.RunOptions{
		Jobs: *jobs, Policy: policy,
		Metrics: metrics.Collector(),
		Journal: jnl, CheckpointEvery: *ckptEvery, Drain: drain, CellTimeout: *cellTime,
	})
	if err != nil {
		closeMetrics()
		fmt.Fprintf(stderr, "mbpsweep: %v\n", err)
		if errors.Is(err, faults.ErrDrained) {
			return exitDrained
		}
		return exitTotal
	}
	closeMetrics()
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(stderr, "mbpsweep: closing resume journal:", err)
		}
	}

	return sweep.Render(stdout, stderr, resolved.Specs, sets, len(resolved.Sources), *jsonOut)
}
