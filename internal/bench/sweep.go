package bench

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
	"mbplib/internal/tracegen"
)

// SweepMeasurement is one worker count of the parallel-sweep scaling curve.
type SweepMeasurement struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	// AggBranchesPerSec is the whole matrix's branch count (every trace
	// simulated once per predictor) over the wall time.
	AggBranchesPerSec float64 `json:"agg_branches_per_sec"`
	// Speedup is sequential seconds over this configuration's seconds.
	Speedup float64 `json:"speedup"`
}

// SweepStage records the sweep scheduler's scaling on a traces × predictors
// matrix: the sequential baseline runs SweepParallel on one worker, the
// parallel rows run it at increasing worker counts, all without a cache as
// mbpsweep does (each trace group reads its trace once for all its
// predictors).
type SweepStage struct {
	Traces        []string           `json:"traces"`
	Predictors    []string           `json:"predictors"`
	TotalBranches uint64             `json:"total_branches"` // across the whole matrix
	Sequential    SweepMeasurement   `json:"sequential"`
	Parallel      []SweepMeasurement `json:"parallel"`
}

// SweepSpecs returns n high-entropy synthetic trace specs for the sweep
// stage: near-unbiased outcomes over large working sets compress poorly, so
// the gzip decode a trace group shares across its predictors is a
// realistic share of the pair cost (real CBP5 traces are likewise far less
// regular than the table suites' loop kernels).
func SweepSpecs(n int, scale uint64) []tracegen.Spec {
	specs := make([]tracegen.Spec, n)
	for i := range specs {
		specs[i] = tracegen.Spec{
			Name:     fmt.Sprintf("SWEEP-%d", i+1),
			Seed:     0x53E9_0001 + uint64(i)*0x9177,
			Branches: scale,
			Kernels: []tracegen.KernelSpec{
				{Kind: tracegen.Biased, Branches: 16384, Bias: 0.5, Weight: 3, GapMean: 9},
				{Kind: tracegen.Indirect, Targets: 256, GapMean: 7},
				{Kind: tracegen.CallRet, Branches: 2048, Bias: 0.5, GapMean: 11},
			},
			ChunkLen: 16,
		}
	}
	return specs
}

// PrepareSweepTraces materialises the sweep-stage traces as gzip-compressed
// SBBT files under dir, returning their paths.
func PrepareSweepTraces(dir string, n int, scale uint64) ([]string, error) {
	paths := make([]string, n)
	for i, spec := range SweepSpecs(n, scale) {
		path := filepath.Join(dir, spec.Name+".sbbt.gz")
		if err := writeSBBTFile(path, spec); err != nil {
			return nil, err
		}
		paths[i] = path
	}
	return paths, nil
}

// sweepPredictors resolves registry specs into sweep predictor specs,
// validating each once.
func sweepPredictors(specs []string) ([]sim.PredictorSpec, error) {
	preds := make([]sim.PredictorSpec, len(specs))
	for i, spec := range specs {
		if _, err := registry.New(spec); err != nil {
			return nil, err
		}
		preds[i] = sim.PredictorSpec{Name: spec, New: func() bp.Predictor {
			p, err := registry.New(spec)
			if err != nil {
				panic(err) // validated above; specs are immutable strings
			}
			return p
		}}
	}
	return preds, nil
}

// matrixBranches sums the header branch counts of the trace files and scales
// by the predictor count: every trace flows through every predictor once.
func matrixBranches(paths []string, nPredictors int) (uint64, error) {
	var perPass uint64
	for _, path := range paths {
		f, err := compress.OpenFile(path)
		if err != nil {
			return 0, err
		}
		r, err := sbbt.NewReader(f)
		if err != nil {
			f.Close()
			return 0, err
		}
		perPass += r.TotalBranches()
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return perPass * uint64(nPredictors), nil
}

// MeasureSweep benchmarks the parallel sweep scheduler over the given SBBT
// trace files and predictor specs, taking the best of rounds runs per
// configuration. workersList is the scaling curve (e.g. 1, 2, 4, NumCPU).
func MeasureSweep(paths, predictorSpecs []string, workersList []int, rounds int) (*SweepStage, error) {
	if rounds < 1 {
		rounds = 1
	}
	sources := sweep.Sources(paths)
	preds, err := sweepPredictors(predictorSpecs)
	if err != nil {
		return nil, err
	}
	total, err := matrixBranches(paths, len(preds))
	if err != nil {
		return nil, err
	}
	st := &SweepStage{Traces: paths, Predictors: predictorSpecs, TotalBranches: total}

	best := func(run func() error) (float64, error) {
		var bestSec float64
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if err := run(); err != nil {
				return 0, err
			}
			if sec := time.Since(start).Seconds(); bestSec == 0 || sec < bestSec {
				bestSec = sec
			}
		}
		return bestSec, nil
	}

	seqSec, err := best(func() error {
		_, err := sim.SweepParallel(sources, preds, sim.Config{}, sim.ParallelOptions{
			Workers: 1, Metrics: collector,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: sequential sweep: %w", err)
	}
	st.Sequential = SweepMeasurement{Workers: 1, Seconds: seqSec, Speedup: 1}
	if seqSec > 0 {
		st.Sequential.AggBranchesPerSec = float64(total) / seqSec
	}

	for _, w := range workersList {
		parSec, err := best(func() error {
			// No cache, as mbpsweep runs: each trace is read once.
			_, err := sim.SweepParallel(sources, preds, sim.Config{}, sim.ParallelOptions{
				Workers: w, Metrics: collector,
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: parallel sweep (%d workers): %w", w, err)
		}
		m := SweepMeasurement{Workers: w, Seconds: parSec}
		if parSec > 0 {
			m.AggBranchesPerSec = float64(total) / parSec
			m.Speedup = seqSec / parSec
		}
		st.Parallel = append(st.Parallel, m)
	}
	return st, nil
}

// DefaultSweepWorkers is the scaling curve the snapshot records: 1, 2, 4 and
// NumCPU workers, deduplicated and sorted.
func DefaultSweepWorkers() []int {
	set := map[int]bool{1: true, 2: true, 4: true, runtime.NumCPU(): true}
	var out []int
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		if set[w] {
			out = append(out, w)
			set[w] = false
		}
	}
	return out
}
