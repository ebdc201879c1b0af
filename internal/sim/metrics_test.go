// Metrics contract tests: collection must never change results (byte-
// identical output with metrics on or off, for every reader kind and for
// the parallel scheduler), must populate the snapshot the commands
// serialise, and must add no allocations to the simulation hot loops.
package sim_test

import (
	"bytes"
	"math"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sim"
)

// TestRunMetricsOutputByteIdentical: for all six reader kinds, sim.Run with
// an enabled collector returns byte-identical result JSON to a run with
// metrics disabled, and the collector sees the pipeline.
func TestRunMetricsOutputByteIdentical(t *testing.T) {
	spec := equivSpec(30000)
	cfg := sim.Config{TraceName: "t", WarmupInstructions: 50_000}
	for name, newReader := range equivReaders(t, spec) {
		t.Run(name, func(t *testing.T) {
			off, err := sim.Run(newReader(), gshare.New(), cfg)
			if err != nil {
				t.Fatalf("Run without metrics: %v", err)
			}
			col := obs.New()
			cfgOn := cfg
			cfgOn.Metrics = col
			on, err := sim.Run(newReader(), gshare.New(), cfgOn)
			if err != nil {
				t.Fatalf("Run with metrics: %v", err)
			}
			offJSON, onJSON := resultJSON(t, off), resultJSON(t, on)
			if !bytes.Equal(offJSON, onJSON) {
				t.Errorf("metrics changed the result:\noff: %s\non:  %s", offJSON, onJSON)
			}
			s := col.Snapshot()
			if s.Counters["events"] != 30000 {
				t.Errorf("events = %d, want 30000", s.Counters["events"])
			}
			if s.Counters["batches"] == 0 {
				t.Errorf("no batches counted: %v", s.Counters)
			}
			if s.Stages["read"].Count == 0 {
				t.Errorf("no read stage time: %v", s.Stages)
			}
			if s.Stages["warmup"].Count == 0 && s.Stages["sim"].Count == 0 {
				t.Errorf("no consumer stage time: %v", s.Stages)
			}
			if s.Stages["result"].Count != 1 {
				t.Errorf("result stage timed %d times, want 1: %v", s.Stages["result"].Count, s.Stages)
			}
			if s.Histograms["batch_read_ns"].Count != s.Counters["batches"] {
				t.Errorf("batch histogram count %d != batches %d",
					s.Histograms["batch_read_ns"].Count, s.Counters["batches"])
			}
		})
	}
}

// TestSweepParallelMetricsPopulated: an instrumented sweep produces the
// same results as an uninstrumented one and a snapshot with per-worker
// utilisation, cell progress and cache counters — the data behind the
// -metrics and -progress command flags.
func TestSweepParallelMetricsPopulated(t *testing.T) {
	srcs := genSources(t, 8000)
	cfg := sim.Config{WarmupInstructions: 5_000}
	base := sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 4}

	plain, err := sim.SweepParallel(srcs, equivPredictors, cfg, base)
	if err != nil {
		t.Fatalf("sweep without metrics: %v", err)
	}
	col := obs.New()
	withM := base
	withM.Cache, withM.Metrics = sim.NewCache(0), col // cold, like plain's
	metered, err := sim.SweepParallel(srcs, equivPredictors, cfg, withM)
	if err != nil {
		t.Fatalf("sweep with metrics: %v", err)
	}
	diffSweeps(t, plain, metered, equivPredictors)

	nCells := uint64(len(srcs) * len(equivPredictors))
	s := col.Snapshot()
	if s.Counters["cells_done"] != nCells || s.Counters["cells_total"] != nCells {
		t.Errorf("cells done/total = %d/%d, want %d/%d",
			s.Counters["cells_done"], s.Counters["cells_total"], nCells, nCells)
	}
	if _, ok := s.Counters["queue_depth"]; ok {
		t.Errorf("queue_depth = %d after completion, want 0 (omitted)", s.Counters["queue_depth"])
	}
	if s.Counters["events"] == 0 {
		t.Errorf("no events counted: %v", s.Counters)
	}
	// With at least as many traces as workers, the cells of a trace are
	// lanes of one reading: each trace misses once and is never read again.
	wantMisses := uint64(len(srcs))
	if s.Counters["cache_misses"] != wantMisses {
		t.Errorf("cache_misses = %d, want %d", s.Counters["cache_misses"], wantMisses)
	}
	if s.Counters["cache_hits"] != 0 {
		t.Errorf("cache_hits = %d, want 0", s.Counters["cache_hits"])
	}
	if s.Stages["sim"].Count == 0 {
		t.Errorf("no sim stage time: %v", s.Stages)
	}
	if s.Stages["result"].Count != nCells {
		t.Errorf("result stage timed %d times, want one per cell (%d)", s.Stages["result"].Count, nCells)
	}
	if s.Histograms["cell_ns"].Count != nCells {
		t.Errorf("cell histogram count = %d, want %d", s.Histograms["cell_ns"].Count, nCells)
	}
	if len(s.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(s.Workers))
	}
	var cells uint64
	var busy float64
	for _, w := range s.Workers {
		cells += w.Cells
		busy += w.BusySeconds
	}
	if cells != nCells {
		t.Errorf("worker cells sum = %d, want %d", cells, nCells)
	}
	if busy <= 0 {
		t.Errorf("no worker busy time recorded: %+v", s.Workers)
	}
}

// TestRunMetricsNoExtraAllocs is the hot-loop allocation guard: running the
// batched pipeline with an enabled collector must allocate no more than
// running it with metrics disabled — instrumentation is counters and clock
// reads, never per-batch or per-event allocation. The trace spans 25
// batches, so one allocation per batch is past the slack. Each side is the
// least of several measurements: a run whose pooled buffers, tables or
// counters were dropped allocates them afresh, which under -race (where a
// sync.Pool drops a quarter of what it is given) moves single runs by more
// than the slack.
func TestRunMetricsNoExtraAllocs(t *testing.T) {
	spec := equivSpec(25 * 4096)
	readers := equivReaders(t, spec)
	newReader := readers["sbbt"]
	col := obs.New() // reused across runs: steady-state collection

	runWith := func(c *obs.Collector) float64 {
		cfg := sim.Config{TraceName: "t", Metrics: c}
		least := math.Inf(1)
		for range 10 {
			least = min(least, testing.AllocsPerRun(1, func() {
				if _, err := sim.Run(newReader(), gshare.New(), cfg); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	base := runWith(nil)
	metered := runWith(col)
	// Small slack for pool and scheduling variance; the real failure mode —
	// an allocation per batch or per event — is 25 or 102400 over this
	// trace.
	if metered > base+8 {
		t.Errorf("metrics added allocations: %v with vs %v without", metered, base)
	}
}

// TestSweepParallelStreamingMetrics: a one-predictor sweep on one worker with the
// cache off streams every cell through a prefetching reader, and the
// collector sees the cells, the events and the time spent waiting on the
// prefetcher.
func TestSweepParallelStreamingMetrics(t *testing.T) {
	srcs := genSources(t, 4000)
	col := obs.New()
	opts := sim.ParallelOptions{Workers: 1, Metrics: col}
	sets, err := sim.SweepParallel(srcs, []sim.PredictorSpec{{Name: "gshare", New: func() bp.Predictor { return gshare.New() }}}, sim.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets[0].Results) != len(srcs) {
		t.Fatalf("results = %d, want %d", len(sets[0].Results), len(srcs))
	}
	s := col.Snapshot()
	if got := s.Counters["cells_done"]; got != uint64(len(srcs)) {
		t.Errorf("cells_done = %d, want %d", got, len(srcs))
	}
	if s.Counters["events"] == 0 {
		t.Errorf("no events counted: %v", s.Counters)
	}
	if st, ok := s.Stages["prefetch_stall"]; !ok || st.Count == 0 {
		t.Errorf("prefetch_stall stage not timed: %+v", s.Stages)
	}
}
