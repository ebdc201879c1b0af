package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
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

// DefaultCacheBytes is the default decoded-trace cache budget of the
// parallel scheduler: at 8 bytes per record, 1 GiB pins about 130M branches
// of decoded trace, less the traces' static tables.
const DefaultCacheBytes int64 = 1 << 30

// NewCache builds a decoded-trace cache from the budget convention of
// sweep.RunOptions and daemon.Config: 0 means DefaultCacheBytes, negative
// disables the cache (nil).
func NewCache(budget int64) *tracecache.Cache {
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	return tracecache.New(budget)
}

// ParallelOptions configures the parallel sweep scheduler.
type ParallelOptions struct {
	// Workers is the number of concurrent (trace, predictor) simulations.
	// ≤ 0 means GOMAXPROCS.
	Workers int
	// Cache is the decoded-trace cache the cells share. The caller owns
	// it and may share it across sweeps (the daemon keeps one for its
	// whole life). nil disables caching: every pair streams and re-decodes
	// its trace.
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
	// CellTimeout bounds the wall time of one cell. An expired cell fails
	// with a faults.ErrDeadline-classified failure and is journalled as
	// final — a cell that blows its budget once will blow it again.
	// 0 means no deadline.
	CellTimeout time.Duration
}

// SweepError is the error SweepParallel returns under FailFast: the
// lowest-indexed (predictor, trace) failure observed before cancellation.
// Cells are dispatched in groups of one trace per worker, predictor-major
// inside a group (cellOrder), and cancellation stops the cells after a
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
// hundreds of traces — fanning the (trace, predictor) pairs across a
// worker pool backed by a shared decoded-trace cache: each trace is read,
// decompressed and decoded once (subject to the cache budget) and then
// simulated by many predictors, instead of being re-decoded once per
// predictor. Each cell owns a fresh predictor and its own stream, so no
// locking touches the hot loop, which is the same loop as Run's.
//
// A sweep scores predictors by their metrics (§VI), so a cell's Result is
// the metrics-only form: the Result sim.Run would return with most_failed
// nil and num_most_failed_branches 0. Cells skip the selection and the
// rendering of that report, and a journalled cell does not write it.
//
// Results are deterministic regardless of completion order and worker
// count: the returned slice is indexed like predictors, each
// SetResult.Results like sources, and failures are listed in source order,
// so one worker and many produce byte-identical JSON. A panic inside a
// predictor or reader is recovered per cell and reported as a
// faults.ErrPredictorPanic failure with the captured stack. Under
// SkipFailed a failing pair costs exactly its own cell; under FailFast the
// first failure cancels in-flight workers via context and is returned as a
// *SweepError.
//
// With opts.Journal set the sweep is crash-safe and resumable: journalled
// cells replay verbatim before dispatch, finished cells are appended
// durably as they complete, and a drain (opts.Drain) checkpoints in-flight
// cells so a later run with the same journal picks up mid-trace. Drained
// cells surface as resumable faults.ErrDrained failures and never trip
// FailFast — a drain is an interruption, not a verdict.
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
	pending := cellOrder(nP, nT, workers, skip)
	cache := opts.Cache
	chunked := make([]*sharedChunked, nT)
	if cache != nil { // chunked access serves the cache only
		for _, tk := range pending {
			if open := sources[tk.ti].OpenChunked; open != nil {
				if chunked[tk.ti] == nil {
					chunked[tk.ti] = &sharedChunked{open: open}
				}
				chunked[tk.ti].cells++
			}
		}
	}

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
	admitted := schedule(ctx, len(pending), workers, opts.Drain, col, func(i int) {
		tk := pending[i]
		res, fail := runPair(ctx, cache, chunked[tk.ti], sources[tk.ti], predictors[tk.pi], cfg, opts)
		chunked[tk.ti].cellDone()
		if fail != nil && errors.Is(fail.Err, context.Canceled) {
			return // a cancellation echo, not a trace failure
		}
		results[tk.pi][tk.ti], failures[tk.pi][tk.ti] = res, fail
		if fail != nil && fail.Resumable {
			col.Ctr(obs.CtrCellsDrained).Add(1)
			return // drained: not final, not journalled, no FailFast
		}
		if jnl != nil {
			key := CellKey(sources[tk.ti], predictors[tk.pi].Name, cfg)
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
	// Everything the drain kept from admission is reported drained, so the
	// caller can report (and later resume) exactly what remains.
	for _, rest := range pending[admitted:] {
		failures[rest.pi][rest.ti] = drainedFailure(sources[rest.ti].Name)
	}
	for _, h := range chunked {
		h.close() // traces whose cells did not all run (cancelled, drained)
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

// pair is one cell of a sweep: predictor pi over trace ti.
type pair struct{ pi, ti int }

// cellOrder lists the cells to run, those skip marks left out, in dispatch
// order: groups of one trace per worker, predictor-major inside a group.
// The first cells of a group decode its traces on every worker at once
// instead of queueing behind one load, and the nP cells of a trace still
// cluster in time, so its cache entries are loaded once, read nP times,
// and then become the eviction candidates.
func cellOrder(nP, nT, workers int, skip [][]bool) []pair {
	var pending []pair
	w := max(workers, 1)
	for g := 0; g < nT; g += w {
		end := min(g+w, nT)
		for pi := range nP {
			for ti := g; ti < end; ti++ {
				if !skip[pi][ti] {
					pending = append(pending, pair{pi, ti})
				}
			}
		}
	}
	return pending
}

// runPair simulates one (trace, predictor) pair: it opens the pair's batch
// stream, over the trace's shared chunked handle when it has one, and runs
// it through runCell for a metrics-only Result, framed by runGuarded. With
// a cell timeout configured the whole pair (opens and cache waits
// included) runs under a per-cell deadline.
func runPair(ctx context.Context, cache *tracecache.Cache, ch *sharedChunked, src TraceSource, pred PredictorSpec, cfg Config, opts ParallelOptions) (*Result, *TraceFailure) {
	if opts.CellTimeout > 0 {
		var cancelCell context.CancelFunc
		ctx, cancelCell = context.WithTimeout(ctx, opts.CellTimeout)
		defer cancelCell()
	}
	var jc *cellJournal
	if opts.Journal != nil {
		jc = &cellJournal{j: opts.Journal, key: CellKey(src, pred.Name, cfg), every: opts.CheckpointEvery, col: cfg.Metrics}
	}
	open := func() (batchStream, int, error) {
		return openStream(ctx, opts.Drain, cache, ch.get(), src, opts.Policy, cfg.Metrics)
	}
	cfg.TraceName, cfg.metricsOnly = src.Name, true
	return runGuarded(src, open, func(open func() (batchStream, error)) (*Result, error) {
		return runCell(ctx, opts.Drain, open, pred.New, cfg, jc)
	})
}

// runGuarded frames one cell of a trace set: simulate runs over streams
// from open, which reports the opens it made. A panic anywhere in the cell
// (predictor, reader, replayed decode) is recovered and classified, and an
// error becomes the cell's TraceFailure, with the opens as its attempts.
func runGuarded[R any](src TraceSource, open func() (batchStream, int, error), simulate func(open func() (batchStream, error)) (*R, error)) (result *R, failure *TraceFailure) {
	start := time.Now()
	attempts := 1
	defer func() {
		if v := recover(); v != nil {
			result, failure = nil, newFailure(src.Name, faults.NewPanicError(v, debug.Stack()), attempts, start)
		}
	}()
	result, err := simulate(func() (s batchStream, err error) {
		s, attempts, err = open()
		return s, err
	})
	if err != nil {
		// mapDeadline also covers a deadline surfacing through an open or a
		// stream's terminal error rather than through interruptErr.
		return nil, newFailure(src.Name, mapDeadline(err), attempts, start)
	}
	return result, nil
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
// goroutines run cell(i) for i = 0…n−1 in order, each recording the cell's
// time (cell_ns, its worker's stats), cells_done and the queue depth. Cells
// handed out after ctx ended are skipped. The drain is checked before each
// hand-off, so once it is closed no cell starts, even with a worker ready.
// schedule returns the number admitted once they have all finished, and
// counts the rest as drained; the caller reports them.
func schedule(ctx context.Context, n, workers int, drain <-chan struct{}, col *obs.Collector, cell func(i int)) int {
	tasks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		ws := col.Worker(w) // registered up front so snapshots list idle workers
		go func() {
			defer wg.Done()
			for i := range tasks {
				if ctx.Err() != nil {
					continue
				}
				tCell := col.Now()
				cell(i)
				cellDur := col.Now().Sub(tCell)
				ws.Record(cellDur)
				col.Hist(obs.HistCellNs).ObserveDuration(cellDur)
				col.Ctr(obs.CtrCellsDone).Add(1)
				col.Ctr(obs.CtrQueueDepth).Store(col.Ctr(obs.CtrCellsTotal).Load() - col.Ctr(obs.CtrCellsDone).Load())
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
		col.Ctr(obs.CtrCellsDrained).Add(uint64(n - admitted))
	}
	close(tasks)
	wg.Wait()
	return admitted
}

// sharedChunked is one trace's chunked access, shared by the cells of a
// sweep. Opening validates the container by decoding its chunk 0, so the
// sweep opens each trace at most once, on the first cell that reads it, and
// closes it once the trace's last cell has finished. A failed open is the
// verdict for every cell of the trace: each streams it whole. A nil
// *sharedChunked is a trace without chunked access.
type sharedChunked struct {
	open func() (ChunkedTrace, error)

	mu     sync.Mutex
	opened bool         // open has been tried
	ct     ChunkedTrace // nil until opened, and after a failed open or close
	cells  int          // cells of the trace not yet finished
}

// get returns the trace's chunked handle, opening it on first use, or nil
// when the trace has none or its open failed.
func (h *sharedChunked) get() ChunkedTrace {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.opened {
		h.opened = true
		if ct, err := h.open(); err == nil {
			h.ct = ct
		}
	}
	return h.ct
}

// cellDone records that one cell of the trace has finished (its stream is
// closed) and closes the handle after the last.
func (h *sharedChunked) cellDone() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.cells--
	last := h.cells == 0
	h.mu.Unlock()
	if last {
		h.close()
	}
}

// close releases the handle; later calls do nothing.
func (h *sharedChunked) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ct != nil {
		h.ct.Close() //mbpvet:ignore droppederr -- read side: a close failure cannot corrupt the already-consumed trace
		h.ct = nil
	}
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
