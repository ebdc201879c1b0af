package sim

import (
	"cmp"
	"context"
	"slices"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/obs"
)

// CompareName identifies the comparison simulator in result metadata.
const CompareName = "MBPlib comparison simulator (Go)"

// CompareMetrics reports one predictor's side of a comparison run.
type CompareMetrics struct {
	MPKI           float64 `json:"mpki"`
	Mispredictions uint64  `json:"mispredictions"`
	Accuracy       float64 `json:"accuracy"`
}

// CompareBranchReport is one entry of a comparison's most_failed section:
// the branches accounting for the biggest difference in MPKI between the
// two predictors (§VI-C), telling which branches get predicted better and
// whether some got worse.
type CompareBranchReport struct {
	IP          uint64  `json:"ip"`
	Occurrences uint64  `json:"occurrences"`
	MPKI0       float64 `json:"mpki_0"`
	MPKI1       float64 `json:"mpki_1"`
	MPKIDiff    float64 `json:"mpki_diff"` // MPKI1 - MPKI0; negative means predictor 1 is better here
}

// CompareMetadata is the metadata section of a comparison result.
type CompareMetadata struct {
	Simulator              string         `json:"simulator"`
	Version                string         `json:"version"`
	Trace                  string         `json:"trace"`
	WarmupInstr            uint64         `json:"warmup_instr"`
	SimulationInstr        uint64         `json:"simulation_instr"`
	ExhaustedTrace         bool           `json:"exhausted_trace"`
	NumConditionalBranches uint64         `json:"num_conditional_branches"`
	Predictor0             map[string]any `json:"predictor_0"`
	Predictor1             map[string]any `json:"predictor_1"`
}

// CompareResult is the output of the comparison simulator.
type CompareResult struct {
	Metadata   CompareMetadata       `json:"metadata"`
	Metrics0   CompareMetrics        `json:"metrics_0"`
	Metrics1   CompareMetrics        `json:"metrics_1"`
	MostFailed []CompareBranchReport `json:"most_failed"`
	// SimulationTime is the wall-clock time of the whole comparison.
	SimulationTime float64 `json:"simulation_time"`
}

// Compare simulates two predictors over one reading of the trace, so the
// per-branch misprediction deltas come from exactly the same event stream
// (§VI-C). p0 and p1 must be distinct instances.
//
// The trace is prefetched in batches as in Run, and the two predictors are
// two lanes of the stream driver Run uses: every batch goes through p0's
// runLoop, then p1's, kernels, warm-up and limit included. Both loops see
// the same events, so both stop at the same one. As with Run, a panic
// inside the reader or a predictor returns a
// faults.ErrPredictorPanic-classified error, and the reader is no longer in
// use when Compare returns.
func Compare(r bp.Reader, p0, p1 bp.Predictor, cfg Config) (*CompareResult, error) {
	if p0 == nil || p1 == nil {
		return nil, ErrNilPredictor
	}
	open := func() (batchStream, error) { return newPrefetchStream(r, nil, cfg.Metrics), nil }
	return compareStream(open, func() bp.Predictor { return p0 }, func() bp.Predictor { return p1 }, cfg)
}

// compareStream compares predictors from newP0 and newP1 over the stream
// from open, as a group of two lanes.
func compareStream(open func() (batchStream, error), newP0, newP1 func() bp.Predictor, cfg Config) (res *CompareResult, err error) {
	start := time.Now()
	g := &group{ctx: context.TODO(), open: open, cfg: cfg, lanes: []*lane{{newP: newP0}, {newP: newP1}}}
	g.end = func(ended []*lane, exhausted bool) {
		for _, ln := range ended {
			err = cmp.Or(err, ln.err) // a failed lane fails the comparison
		}
		if err != nil {
			return
		}
		err = guarded(func() error {
			l0, l1 := ended[0].loop, ended[1].loop
			res = &CompareResult{
				Metadata: CompareMetadata{
					Simulator:              CompareName,
					Version:                Version,
					Trace:                  cfg.TraceName,
					WarmupInstr:            cfg.WarmupInstructions,
					SimulationInstr:        l0.simInstr(),
					ExhaustedTrace:         exhausted,
					NumConditionalBranches: l0.condBranches,
					Predictor0:             predictorMetadata(ended[0].p),
					Predictor1:             predictorMetadata(ended[1].p),
				},
				Metrics0:       l0.summary(),
				Metrics1:       l1.summary(),
				MostFailed:     compareMostFailed(l0, l1, cfg.MostFailedLimit),
				SimulationTime: time.Since(start).Seconds(),
			}
			return nil
		})
	}
	g.run()
	return res, err
}

// CompareSet compares fresh predictors from newP0 and newP1 over each
// trace of a set, on SweepParallel's scheduler: up to workers comparisons
// at once (≤ 0 means GOMAXPROCS), each streaming its own trace, named
// cfg.TraceName, with no cache. Results and failures are index-aligned with
// sources. A failure, a recovered panic included (class "panic"), costs
// only its own trace. A closed drain lets comparisons in flight finish and
// fails the rest as resumable "not started" faults.ErrDrained failures.
func CompareSet(sources []TraceSource, newP0, newP1 func() bp.Predictor, cfg Config, workers int, drain <-chan struct{}) ([]*CompareResult, []*TraceFailure, error) {
	if newP0 == nil || newP1 == nil {
		return nil, nil, ErrNilPredictor
	}
	n := len(sources)
	results := make([]*CompareResult, n)
	failures := make([]*TraceFailure, n)
	col := cfg.Metrics
	col.Ctr(obs.CtrCellsTotal).Store(uint64(n))
	admitted := schedule(context.Background(), n, poolSize(workers, n), drain, col, func(i int, cellDone func(time.Duration)) {
		src, cfg := sources[i], cfg
		cfg.TraceName = src.Name
		start, attempts := time.Now(), 1
		open := func() (batchStream, error) {
			s, n, err := openStream(context.Background(), time.Time{}, nil, nil, src, Policy{}, col)
			attempts = n
			return s, err
		}
		res, err := compareStream(open, newP0, newP1, cfg)
		if err != nil {
			failures[i] = newFailure(src.Name, err, attempts, time.Since(start))
		}
		results[i] = res
		cellDone(time.Since(start))
	})
	for i := admitted; i < n; i++ {
		failures[i] = drainedFailure(sources[i].Name)
	}
	col.Ctr(obs.CtrCellsDrained).Add(uint64(n - admitted))
	return results, failures, nil
}

// compareMostFailed lists branches by descending |MPKI difference|, ties by
// address. l0 and l1 are the two sides' loops over the same records, so
// their counters share IP ids; branches never counted (warm-up only,
// non-conditional) have no difference and are skipped with every other
// zero-difference branch. It is nil when no branch was counted. limit caps
// the report; 0 defaults to 20 entries.
func compareMostFailed(l0, l1 *runLoop, limit int) []CompareBranchReport {
	simInstr := l0.simInstr()
	if simInstr == 0 || l0.condBranches == 0 {
		return nil
	}
	ips := l0.ips
	if limit <= 0 {
		limit = 20
	}
	type diff struct {
		i int
		d int64
	}
	var diffs []diff
	for i := range int(l0.hw) {
		if d := int64(l1.missed[i]) - int64(l0.missed[i]); d != 0 {
			diffs = append(diffs, diff{i, d})
		}
	}
	slices.SortFunc(diffs, func(a, b diff) int {
		if c := cmp.Compare(abs64(b.d), abs64(a.d)); c != 0 {
			return c
		}
		return cmp.Compare(ips[a.i], ips[b.i])
	})
	if len(diffs) > limit {
		diffs = diffs[:limit]
	}
	kilo := float64(simInstr) / 1000
	reports := make([]CompareBranchReport, 0, len(diffs))
	for _, d := range diffs {
		reports = append(reports, CompareBranchReport{
			IP:          ips[d.i],
			Occurrences: l0.occ[d.i],
			MPKI0:       float64(l0.missed[d.i]) / kilo,
			MPKI1:       float64(l1.missed[d.i]) / kilo,
			MPKIDiff:    float64(d.d) / kilo,
		})
	}
	return reports
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
