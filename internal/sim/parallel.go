package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sim/tracecache"
)

// PredictorSpec names one predictor configuration of a sweep and knows how
// to construct fresh instances of it. Construction happens on the worker
// goroutine that simulates each (trace, predictor) pair — predictors are
// stateful, so instances are never shared across workers or traces.
type PredictorSpec struct {
	Name string
	New  func() bp.Predictor
}

// DefaultCacheBytes is the default budget of the daemon's decoded-trace
// cache: at 8 bytes per record, 1 GiB pins about 130M branches of decoded
// trace, less the traces' static tables.
const DefaultCacheBytes int64 = 1 << 30

// NewCache builds a decoded-trace cache from the budget convention of
// daemon.Config: 0 means DefaultCacheBytes, negative disables the cache
// (nil).
func NewCache(budget int64) *tracecache.Cache {
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	return tracecache.New(budget)
}

// ParallelOptions configures the parallel sweep scheduler.
type ParallelOptions struct {
	// Workers is the number of trace groups run at once. ≤ 0 means
	// GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is the decoded-trace cache the trace groups read
	// through, owned by the caller, who may share it across sweeps (the
	// daemon keeps one for its whole life). nil streams every group: a
	// sweep reads each trace once, so a cache of its own would never hit.
	Cache *tracecache.Cache
	// Policy is the per-pair failure policy: FailFast or SkipFailed, and
	// the retry schedule of transient trace opens.
	Policy Policy
	// Metrics receives scheduler observability (per-worker utilisation,
	// cells done, queue depth, cache counters) when non-nil. nil disables
	// collection at zero cost; results are identical either way.
	Metrics *obs.Collector
	// Journal, when non-nil, makes the sweep crash-safe: every finished
	// cell is appended durably before the sweep moves on, cells already on
	// record (keyed by CellKey) replay verbatim without simulating, and
	// in-flight cells of checkpointable predictors snapshot their state
	// every CheckpointEvery events. A sweep restarted against the same
	// journal produces byte-identical results to an uninterrupted run.
	Journal *journal.Journal
	// CheckpointEvery is the event interval between in-flight checkpoints
	// when Journal is set and the predictor implements bp.Checkpointer.
	// 0 disables checkpointing: interrupted cells restart from zero.
	CheckpointEvery uint64
	// Drain, when non-nil, requests a graceful drain once closed: no new
	// cells are admitted, in-flight cells checkpoint (when journalling)
	// and fail as resumable faults.ErrDrained, and the sweep returns with
	// everything it finished. Drained failures never trip FailFast.
	Drain <-chan struct{}
	// CellTimeout bounds one cell's time: its trace group's shared time
	// (opens, waits, reads) plus its own simulation time. An expired cell
	// fails with a faults.ErrDeadline-classified failure, journalled as
	// final, while the other cells of its group go on. 0 means no deadline.
	CellTimeout time.Duration
}

// SweepError is the error SweepParallel returns under FailFast: the
// lowest-indexed (predictor, trace) failure observed before cancellation.
// Trace groups are dispatched trace by trace, a stream error fails every
// cell of its group at once, and cancellation stops the groups after a
// failure from running, so which pair is reported follows that order and,
// with several workers, the timing of the failures. The text reads
// "<predictor>: sim: trace "<name>": <cause>".
type SweepError struct {
	Predictor string
	Trace     string
	Err       error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("%s: sim: trace %q: %v", e.Predictor, e.Trace, e.Err)
}

func (e *SweepError) Unwrap() error { return e.Err }

// SweepParallel scores every predictor of a sweep over every trace of a
// set — the championship workflow of §II, where a design is scored over
// hundreds of traces. A worker pool runs trace groups: one trace and its
// predictors as lanes of one stream, so the trace is read and decoded
// once for all of them. With fewer traces than workers, a trace's
// predictors split into ceil(workers / traces) contiguous groups. Each
// cell owns a fresh predictor and its own runLoop, so no locking touches
// the hot loop, which is the same loop as Run's.
//
// A sweep scores predictors by their metrics (§VI), so a cell's Result is
// the metrics-only form: the Result sim.Run would return with most_failed
// nil and num_most_failed_branches 0. Cells skip the selection and the
// rendering of that report, and a journalled cell does not write it.
//
// Results are deterministic regardless of completion order and worker
// count: the returned slice is indexed like predictors, each
// SetResult.Results like sources, and failures are listed in source order,
// so one worker and many produce byte-identical JSON. A predictor panic
// is recovered as a faults.ErrPredictorPanic failure of its cell alone,
// with the captured stack; a stream error (a corrupt trace, a reader
// panic) fails every live cell of the group. Under SkipFailed a failing
// cell costs exactly itself; under FailFast the first failure cancels the
// sweep via context and is returned as a *SweepError.
//
// With opts.Journal set the sweep is crash-safe and resumable: journalled
// cells replay verbatim before dispatch, finished cells are appended
// durably as they complete, and a drain (opts.Drain) checkpoints in-flight
// cells so a later run with the same journal picks up each mid-trace.
// Drained cells surface as resumable faults.ErrDrained failures and never
// trip FailFast — a drain is an interruption, not a verdict.
func SweepParallel(sources []TraceSource, predictors []PredictorSpec, cfg Config, opts ParallelOptions) ([]*SetResult, error) {
	for _, ps := range predictors {
		if ps.New == nil {
			return nil, ErrNilPredictor
		}
	}
	nP, nT := len(predictors), len(sources)
	results := make([][]*Result, nP)
	failures := make([][]*TraceFailure, nP)
	skip := make([][]bool, nP)
	for pi := range predictors {
		results[pi] = make([]*Result, nT)
		failures[pi] = make([]*TraceFailure, nT)
		skip[pi] = make([]bool, nT)
	}
	col := opts.Metrics
	cfg.Metrics = col // stage timings and event counts accrue per pair

	// Replay: cells the journal already holds are filled in up front and
	// never scheduled; only the missing ones cost simulation time. An
	// undecodable record (foreign schema, truncated by hand) re-runs the
	// cell rather than failing the sweep.
	jnl := opts.Journal
	replayed := 0
	if jnl != nil {
		for pi := range predictors {
			for ti := range sources {
				rec, ok := jnl.Cell(CellKey(sources[ti], predictors[pi].Name, cfg))
				if !ok {
					continue
				}
				res, fail, err := decodeCell(rec)
				if err != nil {
					continue
				}
				results[pi][ti], failures[pi][ti] = res, fail
				skip[pi][ti] = true
				replayed++
			}
		}
	}

	workers := poolSize(opts.Workers, nP*nT)
	groups := traceGroups(nP, nT, workers, skip)

	col.Ctr(obs.CtrCellsTotal).Store(uint64(nP * nT))
	col.Ctr(obs.CtrCellsReplayed).Store(uint64(replayed))
	col.Ctr(obs.CtrCellsDone).Store(uint64(replayed))
	col.Ctr(obs.CtrQueueDepth).Store(uint64(nP*nT - replayed))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first journal-append failure ends the sweep with an error: a
	// sweep that silently stopped journalling would break the crash-safety
	// its caller asked for.
	var jmu sync.Mutex
	var jerr error
	admitted := schedule(ctx, len(groups), min(workers, len(groups)), opts.Drain, col, func(i int, cellDone func(time.Duration)) {
		tg := groups[i]
		runGroup(ctx, sources[tg.ti], predictors, tg.pis, cfg, opts, func(pi int, res *Result, fail *TraceFailure, d time.Duration) {
			defer cellDone(d)
			if fail != nil && errors.Is(fail.Err, context.Canceled) {
				return // a cancellation echo, not a trace failure
			}
			results[pi][tg.ti], failures[pi][tg.ti] = res, fail
			if fail != nil && fail.Resumable {
				col.Ctr(obs.CtrCellsDrained).Add(1)
				return // drained: not final, not journalled, no FailFast
			}
			if jnl != nil {
				key := CellKey(sources[tg.ti], predictors[pi].Name, cfg)
				if err := journalCell(jnl, col, key, res, fail); err != nil {
					jmu.Lock()
					if jerr == nil {
						jerr = err
					}
					jmu.Unlock()
					cancel()
				}
			}
			if fail != nil && opts.Policy.Mode == FailFast {
				cancel()
			}
		})
	})
	// Everything the drain kept from admission is reported drained, so the
	// caller can report (and later resume) exactly what remains.
	for _, tg := range groups[admitted:] {
		for _, pi := range tg.pis {
			failures[pi][tg.ti] = drainedFailure(sources[tg.ti].Name)
		}
		col.Ctr(obs.CtrCellsDrained).Add(uint64(len(tg.pis)))
	}

	out := make([]*SetResult, nP)
	var firstErr *SweepError
	for pi := range predictors {
		set := &SetResult{Results: results[pi]}
		for ti := range sources {
			if f := failures[pi][ti]; f != nil {
				set.Failures = append(set.Failures, *f)
				if opts.Policy.Mode == FailFast && firstErr == nil && !f.Resumable {
					firstErr = &SweepError{Predictor: predictors[pi].Name, Trace: sources[ti].Name, Err: f.Err}
				}
			}
		}
		out[pi] = set
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if jerr != nil { // schedule has returned: no cell writes it any more
		return nil, fmt.Errorf("sweep journal: %w", jerr)
	}
	return out, nil
}

// traceGroup is trace ti and the predictors pis, run as lanes of one stream.
type traceGroup struct {
	ti  int
	pis []int
}

// traceGroups lists a sweep's trace groups, trace by trace: the
// predictors of each trace that skip leaves to run, split into
// ceil(workers / nT) contiguous groups when there are fewer traces than
// workers.
func traceGroups(nP, nT, workers int, skip [][]bool) []traceGroup {
	split := max(1, (workers+nT-1)/max(nT, 1))
	var groups []traceGroup
	for ti := range nT {
		var pis []int
		for pi := range nP {
			if !skip[pi][ti] {
				pis = append(pis, pi)
			}
		}
		k := min(split, len(pis))
		for j := range k {
			groups = append(groups, traceGroup{ti, pis[j*len(pis)/k : (j+1)*len(pis)/k]})
		}
	}
	return groups
}

// runGroup runs the predictors pis over src as one trace group, reporting
// each cell as it ends with its metrics-only Result or its failure, and its
// time. A reading opens src with the policy's retries, through opts.Cache
// when there is one.
func runGroup(ctx context.Context, src TraceSource, predictors []PredictorSpec, pis []int, cfg Config, opts ParallelOptions, report func(pi int, res *Result, fail *TraceFailure, d time.Duration)) {
	cfg.TraceName, cfg.metricsOnly = src.Name, true
	lanes := make([]*lane, len(pis))
	for i, pi := range pis {
		lanes[i] = &lane{id: pi, newP: predictors[pi].New}
		if opts.Journal != nil {
			lanes[i].jc = &cellJournal{j: opts.Journal, key: CellKey(src, predictors[pi].Name, cfg), every: opts.CheckpointEvery, col: cfg.Metrics}
		}
	}
	attempts, deadline := 1, time.Time{} // deadline bounds opens: the budget from the start
	if opts.CellTimeout > 0 {
		deadline = time.Now().Add(opts.CellTimeout)
	}
	g := &group{ctx: ctx, drain: opts.Drain, cfg: cfg, timeout: opts.CellTimeout, lanes: lanes}
	g.open = func() (batchStream, error) {
		s, n, err := openStream(ctx, deadline, opts.Drain, opts.Cache, src, opts.Policy, cfg.Metrics)
		attempts = n
		return s, err
	}
	g.end = func(ended []*lane, exhausted bool) {
		for _, ln := range ended {
			res, err := ln.result(cfg, exhausted)
			var fail *TraceFailure
			if err != nil { // mapDeadline: a deadline that ended an open or a stream
				res, fail = nil, newFailure(src.Name, mapDeadline(err), attempts, ln.elapsed)
			}
			report(ln.id, res, fail, ln.elapsed)
		}
	}
	g.run()
}

// poolSize is the worker count of a set of n cells: workers, GOMAXPROCS
// when workers ≤ 0, and never more than n.
func poolSize(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// schedule is the one worker pool of SweepParallel and CompareSet: workers
// goroutines run task(i) for i = 0…n−1 in order, a trace group or a
// comparison. A task calls cellDone once per cell as the cell ends, with
// the cell's time, which records cell_ns, cells_done and the queue depth;
// its worker's stats get the task's time and cells. Tasks handed out
// after ctx ended are skipped. The drain is checked before each hand-off,
// so once it is closed no task starts, even with a worker ready. schedule
// returns the number admitted once they have all finished; the caller
// reports the rest drained.
func schedule(ctx context.Context, n, workers int, drain <-chan struct{}, col *obs.Collector, task func(i int, cellDone func(d time.Duration))) int {
	tasks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		ws := col.Worker(w) // registered up front so snapshots list idle workers
		go func() {
			defer wg.Done()
			var cells uint64
			cellDone := func(d time.Duration) {
				cells++
				col.Hist(obs.HistCellNs).ObserveDuration(d)
				col.Ctr(obs.CtrCellsDone).Add(1)
				col.Ctr(obs.CtrQueueDepth).Store(col.Ctr(obs.CtrCellsTotal).Load() - col.Ctr(obs.CtrCellsDone).Load())
			}
			for i := range tasks {
				if ctx.Err() != nil {
					continue
				}
				tTask := col.Now()
				cells = 0
				task(i, cellDone)
				ws.Record(col.Now().Sub(tTask), cells)
			}
		}()
	}
	admitted := 0
admit:
	for ; admitted < n; admitted++ {
		select {
		case <-drain: // checked first: a closed drain admits nothing more
			break admit
		default:
		}
		select {
		case tasks <- admitted:
		case <-drain:
			break admit
		}
	}
	if admitted < n {
		col.Ctr(obs.CtrDraining).Store(1)
	}
	close(tasks)
	wg.Wait()
	return admitted
}

// openWithRetry opens a trace source with the policy's transient-open
// retry loop (full-jitter backoff), reporting the attempt count for failure
// accounting. Open failures are wrapped as "opening: ...". Cancellation,
// the cell deadline and a drain end the loop, backoff sleeps included: the
// context error is returned raw (the cache keeps it off the record), a
// drain as a resumable "not started" fault.
func openWithRetry(ctx context.Context, drain <-chan struct{}, src TraceSource, policy Policy) (bp.Reader, io.Closer, int, error) {
	bo := newBackoff(policy, src.Name)
	attempts := 0
	for {
		attempts++
		if err := ctx.Err(); err != nil {
			return nil, nil, attempts, err
		}
		select {
		case <-drain:
			return nil, nil, attempts, fmt.Errorf("not started: %w", faults.ErrDrained)
		default:
		}
		r, closer, err := src.Open()
		if err == nil {
			return r, closer, attempts, nil
		}
		if attempts > policy.Retries || faults.Permanent(err) {
			return nil, nil, attempts, fmt.Errorf("opening: %w", err)
		}
		if d := bo.nextDelay(); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
			case <-drain:
			}
			t.Stop()
		}
	}
}
