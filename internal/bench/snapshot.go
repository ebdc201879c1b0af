package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
)

// SimMeasurement is one measured configuration of the batching snapshot:
// wall time, throughput and allocation behaviour over a full trace-file
// pass (decompression and decode included, as in the paper's methodology).
type SimMeasurement struct {
	Seconds         float64 `json:"seconds"`
	BranchesPerSec  float64 `json:"branches_per_sec"`
	MallocsPerEvent float64 `json:"mallocs_per_event"`
	// StageSeconds breaks the batched pipeline's time down by obs stage
	// (read, warmup, sim, prefetch_stall, produce_stall) — recorded through
	// an obs.Collector, so it is absent on scalar variants and on snapshots
	// written before the observability layer existed.
	StageSeconds map[string]float64 `json:"stage_seconds,omitempty"`
}

// Stage pairs the scalar baseline with the batched pipeline for one
// pipeline stage (trace decode alone, or a full simulation).
type Stage struct {
	Scalar  SimMeasurement `json:"scalar"`
	Batched SimMeasurement `json:"batched"`
	Speedup float64        `json:"speedup"`
}

// SimEntry is one full-simulation comparison: the scalar reference loop
// against the batched decode-ahead pipeline under a given predictor.
type SimEntry struct {
	Predictor string `json:"predictor"`
	Stage
	// Kernel records the dispatch-level batch-kernel comparison for
	// predictors implementing bp.BatchPredictor: bp.SimulateBatch over the
	// decoded in-memory trace with the native kernel (Batched) against the
	// same predictor with the kernel stripped via bp.ScalarOnly (Scalar).
	// Trace decode and simulator accounting are excluded on both sides, so
	// the ratio isolates what the fused TrainBatch kernel buys. Absent for
	// predictors without a kernel and for snapshots written before batch
	// kernels existed.
	Kernel *Stage `json:"kernel,omitempty"`
}

// SimSnapshot is the committed record of the batching optimisation
// (BENCH_sim.json). Read isolates the trace-decode stage (drain the file,
// no predictor); Sim is the end-to-end run, whose speedup shrinks as the
// predictor's own cost grows.
type SimSnapshot struct {
	Trace      string `json:"trace"`
	Branches   uint64 `json:"branches"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU is runtime.NumCPU() of the measuring machine, so a snapshot's
	// parallel numbers can be read against the cores it actually had (0 in
	// snapshots written before it was recorded).
	NumCPU int        `json:"num_cpu"`
	Read   Stage      `json:"read"`
	Sim    []SimEntry `json:"sim"`
	// Sweep records the sweep scheduler's scaling curve against its
	// one-worker, cache-off baseline (absent in snapshots written before
	// the scheduler existed).
	Sweep *SweepStage `json:"sweep,omitempty"`
	// Journal records the crash-safety journal's write overhead over the
	// sweep matrix (absent in snapshots written before resumable sweeps
	// existed).
	Journal *JournalStage `json:"journal,omitempty"`
}

// collector is the optional command-installed obs collector: when mbpbench
// runs with -metrics, every measured simulation accrues into it so the final
// snapshot covers the whole bench session. Measurements that need a per-run
// stage breakdown diff its snapshots around the run instead of assuming it
// starts empty.
var collector *obs.Collector

// SetCollector installs the session-wide obs collector (nil disables, the
// default). Call before any Measure function; not safe to change while a
// measurement is running.
func SetCollector(col *obs.Collector) { collector = col }

// runCollector returns the collector to instrument one measured run: the
// session-wide one when installed, else a fresh local one so the stage
// breakdown is still recorded.
func runCollector() *obs.Collector {
	if collector != nil {
		return collector
	}
	return obs.New()
}

// diffStageSeconds returns the per-stage seconds accrued between two
// snapshots of the same collector, skipping stages that did not advance.
func diffStageSeconds(before, after obs.Snapshot) map[string]float64 {
	var out map[string]float64
	for name, st := range after.Stages {
		delta := st.Seconds - before.Stages[name].Seconds
		if delta <= 0 {
			continue
		}
		if out == nil {
			out = make(map[string]float64, len(after.Stages))
		}
		out[name] = delta
	}
	return out
}

// openTrace opens the (possibly compressed) SBBT trace file.
func openTrace(path string) (io.ReadCloser, *sbbt.Reader, error) {
	f, err := compress.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := sbbt.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, r, nil
}

// drainVariant decodes every event of the trace file without simulating,
// via the scalar Read loop or ReadBatch, isolating the decode stage.
func drainVariant(path string, batched bool) (m SimMeasurement, events uint64, err error) {
	f, r, err := openTrace(path)
	if err != nil {
		return SimMeasurement{}, 0, err
	}
	defer f.Close()
	dst := make([]bp.Event, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		if batched {
			_, err = r.ReadBatch(dst)
		} else {
			_, err = r.Read()
		}
		if err != nil {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		return SimMeasurement{}, 0, err
	}
	events = r.TotalBranches()
	m = SimMeasurement{Seconds: elapsed.Seconds()}
	if events > 0 && m.Seconds > 0 {
		m.BranchesPerSec = float64(events) / m.Seconds
		m.MallocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
	}
	return m, events, nil
}

// runVariant simulates the trace file once with either the scalar
// reference loop or the batched pipeline, returning the measurement and
// the trace's total dynamic branch count (the throughput denominator:
// every event flows through Track, not just the conditional ones).
func runVariant(path, predictorSpec string, batched bool) (m SimMeasurement, events uint64, err error) {
	p, err := registry.New(predictorSpec)
	if err != nil {
		return SimMeasurement{}, 0, err
	}
	f, r, err := openTrace(path)
	if err != nil {
		return SimMeasurement{}, 0, err
	}
	defer f.Close()
	var res *sim.Result
	var col *obs.Collector
	var stagesBefore obs.Snapshot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if batched {
		col = runCollector()
		stagesBefore = col.Snapshot()
		res, err = sim.Run(r, p, sim.Config{TraceName: path, Metrics: col})
	} else {
		res, err = sim.RunScalar(r, p, sim.Config{TraceName: path})
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		return SimMeasurement{}, 0, err
	}
	events = r.TotalBranches()
	m = SimMeasurement{Seconds: res.Metrics.SimulationTime}
	if events > 0 && m.Seconds > 0 {
		m.BranchesPerSec = float64(events) / m.Seconds
		m.MallocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
	}
	if col != nil {
		m.StageSeconds = diffStageSeconds(stagesBefore, col.Snapshot())
	}
	return m, events, nil
}

// loadBranches decodes the trace file's full branch stream into memory, so
// kernel measurements time predictor arithmetic rather than decoding.
func loadBranches(path string) ([]bp.Branch, error) {
	f, r, err := openTrace(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var branches []bp.Branch
	dst := make([]bp.Event, 4096)
	for {
		n, err := r.ReadBatch(dst)
		for i := 0; i < n; i++ {
			branches = append(branches, dst[i].Branch)
		}
		if err == io.EOF {
			return branches, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// kernelBatch is the dispatch batch size of the kernel measurement,
// matching the simulator's decode-ahead batch capacity.
const kernelBatch = 4096

// measureKernel times the dispatch-level kernel comparison for one
// predictor: bp.SimulateBatch over the pre-decoded trace, once with the
// native bp.BatchPredictor kernel and once with the kernel stripped
// (bp.ScalarOnly), best of rounds. Returns nil for predictors without a
// kernel.
func measureKernel(branches []bp.Branch, spec string, rounds int) (*Stage, error) {
	if p, err := registry.New(spec); err != nil {
		return nil, err
	} else if _, ok := p.(bp.BatchPredictor); !ok {
		return nil, nil
	}
	out := make([]bp.Prediction, kernelBatch)
	variant := func(kernel bool) (SimMeasurement, uint64, error) {
		p, err := registry.New(spec)
		if err != nil {
			return SimMeasurement{}, 0, err
		}
		if !kernel {
			p = bp.ScalarOnly(p)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for off := 0; off < len(branches); off += kernelBatch {
			end := off + kernelBatch
			if end > len(branches) {
				end = len(branches)
			}
			bp.SimulateBatch(p, branches[off:end], out[:end-off])
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		events := uint64(len(branches))
		m := SimMeasurement{Seconds: elapsed.Seconds()}
		if events > 0 && m.Seconds > 0 {
			m.BranchesPerSec = float64(events) / m.Seconds
			m.MallocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		}
		return m, events, nil
	}
	st, _, err := measureStage(rounds, func(batched bool) (SimMeasurement, uint64, error) {
		return variant(batched)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// measureStage takes the best of rounds runs per variant and derives the
// scalar-over-batched speedup.
func measureStage(rounds int, variant func(batched bool) (SimMeasurement, uint64, error)) (Stage, uint64, error) {
	var st Stage
	var branches uint64
	measure := func(batched bool) (SimMeasurement, error) {
		best := SimMeasurement{}
		for i := 0; i < rounds; i++ {
			m, events, err := variant(batched)
			if err != nil {
				return SimMeasurement{}, err
			}
			branches = events
			if best.Seconds == 0 || m.Seconds < best.Seconds {
				best = m
			}
		}
		return best, nil
	}
	var err error
	if st.Scalar, err = measure(false); err != nil {
		return Stage{}, 0, err
	}
	if st.Batched, err = measure(true); err != nil {
		return Stage{}, 0, err
	}
	if st.Batched.Seconds > 0 {
		st.Speedup = st.Scalar.Seconds / st.Batched.Seconds
	}
	return st, branches, nil
}

// MeasureSim benchmarks the scalar paths against the batched pipeline over
// one SBBT trace file: the decode stage in isolation, then a full
// simulation per predictor, taking the best of rounds runs per variant.
func MeasureSim(path string, predictors []string, rounds int) (*SimSnapshot, error) {
	if rounds < 1 {
		rounds = 1
	}
	snap := &SimSnapshot{
		Trace:      path,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	var err error
	if snap.Read, snap.Branches, err = measureStage(rounds, func(batched bool) (SimMeasurement, uint64, error) {
		return drainVariant(path, batched)
	}); err != nil {
		return nil, err
	}
	var kernelBranches []bp.Branch
	for _, spec := range predictors {
		st, _, err := measureStage(rounds, func(batched bool) (SimMeasurement, uint64, error) {
			return runVariant(path, spec, batched)
		})
		if err != nil {
			return nil, err
		}
		entry := SimEntry{Predictor: spec, Stage: st}
		if p, err := registry.New(spec); err == nil {
			if _, ok := p.(bp.BatchPredictor); ok {
				// The branch stream is decoded once, lazily, and shared by
				// every kernel-capable predictor's dispatch measurement.
				if kernelBranches == nil {
					if kernelBranches, err = loadBranches(path); err != nil {
						return nil, err
					}
				}
				if entry.Kernel, err = measureKernel(kernelBranches, spec, rounds); err != nil {
					return nil, err
				}
			}
		}
		snap.Sim = append(snap.Sim, entry)
	}
	return snap, nil
}

// WriteSimSnapshot writes the snapshot as indented JSON to path.
func WriteSimSnapshot(path string, snap *SimSnapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing snapshot: %w", err)
	}
	return nil
}
