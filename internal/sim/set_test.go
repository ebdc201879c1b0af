package sim

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/tracegen"
)

func specSource(spec tracegen.Spec) TraceSource {
	return TraceSource{Name: spec.Name, Open: func() (bp.Reader, io.Closer, error) {
		g, err := tracegen.New(spec)
		return g, nil, err
	}}
}

func suiteSources(t *testing.T, n uint64) []TraceSource {
	t.Helper()
	specs, err := tracegen.Suite("cbp5-train", n)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []TraceSource
	for _, s := range specs {
		srcs = append(srcs, specSource(s))
	}
	return srcs
}

// sweepShapes are the scheduler shapes every trace-set test runs under:
// one worker and four, each with the decoded-trace cache on and off (off,
// every cell streams its trace through a prefetching reader).
var sweepShapes = []struct {
	name       string
	workers    int
	cacheBytes int64
}{
	{"j1-cache", 1, 0},
	{"j1-nocache", 1, -1},
	{"j4-cache", 4, 0},
	{"j4-nocache", 4, -1},
}

// forEachShape runs f as one subtest per scheduler shape.
func forEachShape(t *testing.T, f func(t *testing.T, opts ParallelOptions)) {
	for _, sh := range sweepShapes {
		t.Run(sh.name, func(t *testing.T) {
			f(t, ParallelOptions{Workers: sh.workers, Cache: NewCache(sh.cacheBytes)})
		})
	}
}

// runSet scores one predictor over a trace set: a one-predictor sweep.
func runSet(srcs []TraceSource, newPredictor func() bp.Predictor, cfg Config, opts ParallelOptions) (*SetResult, error) {
	sets, err := SweepParallel(srcs, []PredictorSpec{{Name: "p", New: newPredictor}}, cfg, opts)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

func TestSweepParallelMatchesSequentialRuns(t *testing.T) {
	srcs := suiteSources(t, 3000)
	newPred := func() bp.Predictor { return &staticPredictor{taken: true} }
	forEachShape(t, func(t *testing.T, opts ParallelOptions) {
		set, err := runSet(srcs, newPred, Config{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Results) != len(srcs) {
			t.Fatalf("got %d results", len(set.Results))
		}
		for i, src := range srcs {
			r, _, err := src.Open()
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Run(r, newPred(), Config{TraceName: src.Name})
			if err != nil {
				t.Fatal(err)
			}
			if got := set.Results[i]; got.Metrics.Mispredictions != seq.Metrics.Mispredictions {
				t.Errorf("trace %s: sweep %d vs Run %d mispredictions",
					src.Name, got.Metrics.Mispredictions, seq.Metrics.Mispredictions)
			}
			if set.Results[i].Metadata.Trace != src.Name {
				t.Errorf("result %d labeled %q", i, set.Results[i].Metadata.Trace)
			}
		}
	})
}

// TestSweepParallelPropagatesError: under FailFast the one failing trace
// ends the set with the same error text at every scheduler shape.
func TestSweepParallelPropagatesError(t *testing.T) {
	srcs := suiteSources(t, 2000)
	srcs[3] = TraceSource{Name: "broken", Open: func() (bp.Reader, io.Closer, error) {
		return nil, nil, errors.New("boom")
	}}
	forEachShape(t, func(t *testing.T, opts ParallelOptions) {
		_, err := runSet(srcs, func() bp.Predictor { return &staticPredictor{} }, Config{}, opts)
		if err == nil {
			t.Fatal("error not propagated")
		}
		if got, want := err.Error(), `p: sim: trace "broken": opening: boom`; got != want {
			t.Errorf("err = %q, want %q", got, want)
		}
	})
}

// TestSweepParallelClosesSources: every opened trace is closed exactly once —
// cached and streamed, run to the end, stopped at the instruction limit,
// failed mid-decode, and reopened after a too-big cache verdict.
func TestSweepParallelClosesSources(t *testing.T) {
	var opened, closed atomic.Int32
	srcs := append(suiteSources(t, 1000), corruptSource(t, "corrupt"))
	for i := range srcs {
		open := srcs[i].Open
		srcs[i].Open = func() (bp.Reader, io.Closer, error) {
			r, _, err := open()
			if err != nil {
				return nil, nil, err
			}
			opened.Add(1)
			return r, closerFunc(func() error { closed.Add(1); return nil }), nil
		}
	}
	newPred := func() bp.Predictor { return &staticPredictor{} }
	for _, cfg := range []Config{{}, {SimInstructions: 500}} {
		for _, cacheBytes := range []int64{0, 64, -1} {
			for _, workers := range []int{1, 4} {
				opened.Store(0)
				closed.Store(0)
				opts := ParallelOptions{Workers: workers, Cache: NewCache(cacheBytes), Policy: Policy{Mode: SkipFailed}}
				if _, err := runSet(srcs, newPred, cfg, opts); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("sim=%d cache=%d j=%d", cfg.SimInstructions, cacheBytes, workers)
				if opened.Load() < int32(len(srcs)) {
					t.Errorf("%s: opened %d of %d sources", name, opened.Load(), len(srcs))
				}
				if closed.Load() != opened.Load() {
					t.Errorf("%s: closed %d of %d opened sources", name, closed.Load(), opened.Load())
				}
			}
		}
	}
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

func TestSweepParallelNilPredictorFactory(t *testing.T) {
	forEachShape(t, func(t *testing.T, opts ParallelOptions) {
		if _, err := runSet(nil, nil, Config{}, opts); err != ErrNilPredictor {
			t.Errorf("err = %v", err)
		}
	})
}

func TestSummarize(t *testing.T) {
	srcs := suiteSources(t, 3000)
	set, err := runSet(srcs, func() bp.Predictor { return &staticPredictor{taken: true} }, Config{}, ParallelOptions{Cache: NewCache(0), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	results := set.Results
	s := Summarize(results)
	if s.Traces != len(srcs) {
		t.Errorf("traces = %d", s.Traces)
	}
	var wantInstr, wantMiss uint64
	for _, r := range results {
		wantInstr += r.Metadata.SimulationInstr
		wantMiss += r.Metrics.Mispredictions
	}
	if s.TotalInstructions != wantInstr || s.TotalMispredictions != wantMiss {
		t.Errorf("totals %d/%d, want %d/%d", s.TotalInstructions, s.TotalMispredictions, wantInstr, wantMiss)
	}
	if s.AggregateMPKI <= 0 || s.MeanMPKI <= 0 {
		t.Errorf("MPKIs not computed: %+v", s)
	}
	if s.WorstTrace == "" || s.WorstMPKI <= 0 {
		t.Errorf("worst trace not identified: %+v", s)
	}
	if s.AggregateAccuracy <= 0 || s.AggregateAccuracy >= 1 {
		t.Errorf("aggregate accuracy = %v", s.AggregateAccuracy)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Traces != 0 || s.MeanMPKI != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}
