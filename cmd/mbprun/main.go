// Command mbprun scores one predictor configuration over a whole trace set
// in parallel — the championship evaluation workflow (§II of the MBPlib
// paper: hundreds of traces per design). Traces are scheduled across -j
// workers (default GOMAXPROCS); each cell owns a fresh predictor, so
// throughput scales with cores. Output is byte-identical at every -j.
//
// No decoded-trace cache is involved: one predictor reads each trace
// exactly once, so a cached trace would never be replayed and admission
// would be pure overhead.
//
// Usage:
//
//	mbprun -traces 'traces/*.sbbt.mlz' -predictor tage -j 8
//
// Failure policy: by default a bad trace aborts the whole run (-policy
// failfast). With -policy skip the run degrades gracefully: healthy traces
// are scored, and failed traces are reported in a failure table (and a
// "failures" JSON section with -json), each classified by the faults
// taxonomy (corrupt / truncated / limit / panic / other). Transient open
// errors can be retried with -retries and -retry-backoff.
//
// With -resume DIR the run is crash-safe: finished traces are appended to a
// durable journal in DIR and replay on a re-run instead of simulating, with
// -checkpoint-every snapshotting in-flight traces of checkpointable
// predictors. SIGINT/SIGTERM drain gracefully — unfinished traces are
// reported as resumable and the command exits 4; a second signal aborts.
// -cell-timeout bounds each trace's wall time.
//
// Exit codes: 0 success, 1 usage error, 2 partial failure (some traces
// scored, some failed), 3 total failure, 4 drained (interrupted; re-run
// with -resume to finish the rest).
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
	"time"

	"mbplib/internal/cliflags"
	"mbplib/internal/faults"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/prof"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sweep"
)

// Exit codes.
const (
	exitOK      = 0
	exitUsage   = 1
	exitPartial = 2
	exitTotal   = 3
	exitDrained = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		globs      = fs.String("traces", "", "glob of SBBT trace files")
		predSpec   = fs.String("predictor", "gshare", "predictor spec (see mbpsim -list)")
		warmup     = fs.Uint64("warmup", 0, "warm-up instructions per trace")
		simInstr   = fs.Uint64("sim", 0, "instructions to simulate per trace after warm-up (0 = all)")
		jobs       = fs.Int("j", runtime.GOMAXPROCS(0), "scheduler workers (concurrent traces)")
		jsonOut    = fs.Bool("json", false, "print the summary as JSON")
		metricsTo  = fs.String("metrics", "", "write a pipeline metrics JSON snapshot to this file ('-' = stderr)")
		progress   = fs.Bool("progress", false, "render a live progress line on stderr")
		policyName = fs.String("policy", "failfast", "per-trace failure policy: failfast or skip")
		retries    = fs.Int("retries", 0, "retry transient trace-open failures this many times")
		backoff    = fs.Duration("retry-backoff", 100*time.Millisecond, "delay before the first retry (doubles per attempt)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		resume     = fs.String("resume", "", "journal directory for crash-safe, resumable runs")
		ckptEvery  = fs.Uint64("checkpoint-every", cliflags.DefaultCheckpointEvery, "events between in-flight trace checkpoints (with -resume; 0 disables)")
		cellTime   = fs.Duration("cell-timeout", 0, "wall-time budget per trace (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *globs == "" {
		fmt.Fprintln(stderr, "mbprun: -traces is required (see -help)")
		return exitUsage
	}
	// The whole validation table runs before any side effect (profiles,
	// journal directories), so a usage error never leaves files behind.
	// mbprun used to reject bad -retries inside its policy parser, after
	// profiles had started; the shared table closed that drift.
	if err := cliflags.Validate(
		cliflags.Workers(*jobs),
		cliflags.CellTimeout(*cellTime),
		cliflags.ResumeOptions(*resume, cliflags.FlagWasSet(fs, "checkpoint-every")),
		cliflags.PolicyName(*policyName),
		cliflags.Retries(*retries),
	); err != nil {
		fmt.Fprintln(stderr, "mbprun:", err)
		return exitUsage
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "mbprun:", err)
		return exitUsage
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "mbprun:", err)
		}
	}()
	policy := parsePolicy(*policyName, *retries, *backoff)

	// Validate the spec once before fanning out.
	if _, err := registry.New(*predSpec); err != nil {
		fmt.Fprintln(stderr, "mbprun:", err)
		return exitUsage
	}
	paths, err := filepath.Glob(*globs)
	if err != nil {
		fmt.Fprintln(stderr, "mbprun:", err)
		return exitUsage
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "mbprun: no traces match %q\n", *globs)
		return exitUsage
	}
	sort.Strings(paths)

	sources := sweep.Sources(paths)
	var jnl *journal.Journal
	if *resume != "" {
		if jnl, err = journal.Open(*resume); err != nil {
			fmt.Fprintln(stderr, "mbprun: opening resume journal:", err)
			return exitUsage
		}
		// Cells are keyed by trace content digest, so renamed trace files
		// still replay; unreadable files fall back to their path.
		sweep.AttachDigests(sources)
	}
	metrics := cliflags.NewMetrics(*metricsTo, *progress, stderr)
	closeMetrics := func() {
		if err := metrics.Close(); err != nil {
			fmt.Fprintln(stderr, "mbprun:", err)
		}
	}
	cfg := sim.Config{WarmupInstructions: *warmup, SimInstructions: *simInstr, Metrics: metrics.Collector()}
	drain, stopSignals := cliflags.DrainOnSignal("mbprun", stderr)
	defer stopSignals()
	// The journal keys cells by the predictor spec, so a resumed run with
	// another -predictor never replays this one's results.
	sets, err := sim.SweepParallel(sources, []sim.PredictorSpec{{Name: *predSpec, New: sweep.NewFor(*predSpec)}}, cfg, sim.ParallelOptions{
		Workers: *jobs, Policy: policy,
		Metrics: metrics.Collector(),
		Journal: jnl, CheckpointEvery: *ckptEvery, Drain: drain, CellTimeout: *cellTime,
	})
	if err != nil {
		closeMetrics()
		var se *sim.SweepError
		if errors.As(err, &se) {
			// One predictor: name the trace only.
			err = fmt.Errorf("sim: trace %q: %w", se.Trace, se.Err)
		}
		fmt.Fprintln(stderr, "mbprun:", err)
		if errors.Is(err, faults.ErrDrained) {
			return exitDrained
		}
		return exitTotal
	}
	closeMetrics()
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(stderr, "mbprun: closing resume journal:", err)
		}
	}
	set := sets[0]

	scored := 0
	for _, r := range set.Results {
		if r != nil {
			scored++
		}
	}
	summary := sim.Summarize(set.Results)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Predictor string             `json:"predictor"`
			Summary   sim.SetSummary     `json:"summary"`
			Failures  []sim.TraceFailure `json:"failures,omitempty"`
		}{*predSpec, summary, set.Failures}); err != nil {
			fmt.Fprintln(stderr, "mbprun:", err)
			return exitTotal
		}
	} else {
		fmt.Fprintf(stdout, "%-40s %10s %12s\n", "trace", "MPKI", "accuracy")
		for _, r := range set.Results {
			if r == nil {
				continue
			}
			fmt.Fprintf(stdout, "%-40s %10.4f %12.4f\n", filepath.Base(r.Metadata.Trace), r.Metrics.MPKI, r.Metrics.Accuracy)
		}
		fmt.Fprintf(stdout, "\n%d traces, %d instructions, %d mispredictions\n",
			summary.Traces, summary.TotalInstructions, summary.TotalMispredictions)
		fmt.Fprintf(stdout, "mean MPKI %.4f | aggregate MPKI %.4f | aggregate accuracy %.4f\n",
			summary.MeanMPKI, summary.AggregateMPKI, summary.AggregateAccuracy)
		fmt.Fprintf(stdout, "worst trace: %s (%.4f MPKI)\n", filepath.Base(summary.WorstTrace), summary.WorstMPKI)
		printFailures(stdout, set.Failures)
	}

	anyResumable := false
	for _, f := range set.Failures {
		if f.Resumable {
			anyResumable = true
		}
	}
	switch {
	case len(set.Failures) == 0:
		return exitOK
	case anyResumable:
		// Drained work is not a verdict: re-running with -resume finishes
		// the rest, so the drained code wins over partial/total.
		return exitDrained
	case scored > 0:
		return exitPartial
	default:
		return exitTotal
	}
}

// parsePolicy builds the sim failure policy from already-validated flags
// (cliflags.PolicyName and cliflags.Retries ran in the validation table).
func parsePolicy(name string, retries int, backoff time.Duration) sim.Policy {
	p := sim.Policy{Mode: sim.FailFast, Retries: retries, Backoff: backoff}
	if name == "skip" {
		p.Mode = sim.SkipFailed
	}
	return p
}

// printFailures renders the per-trace failure table of a degraded run.
func printFailures(w io.Writer, failures []sim.TraceFailure) {
	if len(failures) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%d failed trace(s):\n", len(failures))
	fmt.Fprintf(w, "%-40s %-10s %-8s %-9s %-9s %s\n", "trace", "class", "attempts", "time", "resumable", "error")
	for _, f := range failures {
		resumable := "no"
		if f.Resumable {
			resumable = "yes"
		}
		fmt.Fprintf(w, "%-40s %-10s %-8d %-9s %-9s %s\n",
			filepath.Base(f.Trace), f.Class, f.Attempts, fmt.Sprintf("%.2fs", f.Seconds), resumable, f.Message)
	}
}
