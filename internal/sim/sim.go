// Package sim is the simulation library of the suite (§IV of the MBPlib
// paper): it runs a user-provided branch predictor over a trace of branch
// events and reports microarchitecture-agnostic metrics — mispredictions,
// MPKI, accuracy, and the branches that fail the most.
//
// In keeping with the paper's central design decision, this is a library
// and not a framework: the caller owns main, constructs the trace reader
// and the predictor, and calls Run (or Compare, §VI-C); SweepParallel
// scores predictors over whole trace sets through the same loop. Results
// serialise to the JSON layout of Listing 1.
package sim

import (
	"context"
	"errors"
	"io"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/obs"
	"mbplib/internal/sim/tracecache"
)

// Name and Version identify the simulator in result metadata, as in
// Listing 1.
const (
	Name    = "MBPlib std simulator (Go)"
	Version = "v1.0.0"
)

// Config controls a simulation run.
type Config struct {
	// TraceName labels the run in the output metadata.
	TraceName string
	// WarmupInstructions is the number of leading instructions whose
	// branches update the predictor but whose mispredictions are not
	// counted (§IV-C).
	WarmupInstructions uint64
	// SimInstructions caps the number of instructions simulated after
	// warm-up. Zero means run until the trace is exhausted.
	SimInstructions uint64
	// MostFailedLimit caps the most_failed report of Run, RunScalar and
	// Compare. Zero keeps every branch needed to cover half of all
	// mispredictions, as the paper's num_most_failed_branches metric
	// defines (Compare: 20 entries); negative values act as zero, and the
	// commands reject them. SweepParallel cells build no report, so it
	// does not apply to them.
	MostFailedLimit int
	// Metrics receives pipeline observability data (stage timings, event
	// counts) when non-nil. A nil collector is the disabled state: the
	// instrumentation points are zero-allocation no-ops, and results are
	// byte-identical either way — collectors only observe (see internal/obs).
	Metrics *obs.Collector
	// metricsOnly asks for the metrics-only Result of a sweep cell
	// (SweepParallel sets it): no most_failed report, so the run counts
	// its totals alone and keeps no per-branch counters.
	metricsOnly bool
}

// Metadata is the "metadata" section of a result (Listing 1). The paper's
// example output spells the key "num_conditonal_branches"; that is a typo
// in the paper, and this implementation uses the corrected spelling.
// NumBranchInstructions counts static branches (distinct branch addresses),
// which is the only reading consistent with the example's numbers.
type Metadata struct {
	Simulator              string         `json:"simulator"`
	Version                string         `json:"version"`
	Trace                  string         `json:"trace"`
	WarmupInstr            uint64         `json:"warmup_instr"`
	SimulationInstr        uint64         `json:"simulation_instr"`
	ExhaustedTrace         bool           `json:"exhausted_trace"`
	NumConditionalBranches uint64         `json:"num_conditional_branches"`
	NumBranchInstructions  uint64         `json:"num_branch_instructions"`
	Predictor              map[string]any `json:"predictor"`
}

// Metrics is the "metrics" section of a result (Listing 1).
type Metrics struct {
	MPKI                  float64 `json:"mpki"`
	Mispredictions        uint64  `json:"mispredictions"`
	Accuracy              float64 `json:"accuracy"`
	NumMostFailedBranches int     `json:"num_most_failed_branches"`
	SimulationTime        float64 `json:"simulation_time"`
}

// BranchReport is one entry of the "most_failed" section: a conditional
// branch, how often it executed, its contribution to the MPKI, and its
// individual accuracy.
type BranchReport struct {
	IP          uint64  `json:"ip"`
	Occurrences uint64  `json:"occurrences"`
	MPKI        float64 `json:"mpki"`
	Accuracy    float64 `json:"accuracy"`
}

// Result is the full simulation output, shaped like Listing 1.
type Result struct {
	Metadata            Metadata       `json:"metadata"`
	Metrics             Metrics        `json:"metrics"`
	PredictorStatistics map[string]any `json:"predictor_statistics"`
	MostFailed          []BranchReport `json:"most_failed"`
}

// runLoop holds the mutable state of one simulation: the per-branch
// counters and the aggregate counts that the batched and scalar loops both
// accumulate. It reads records through the view of the trace's static
// table that came with the current batch.
type runLoop struct {
	view tracecache.View
	// ips are the branch addresses by IP id: the view's, or a restored
	// checkpoint's until the view covers them.
	ips []uint64
	// counters are the per-branch rows a report is built from; nil in a
	// metrics-only loop, which counts the totals alone.
	*counters
	// hw is 1 + the highest IP id seen. IP ids follow first-seen order, so
	// it is the number of distinct branches seen (num_branch_instructions).
	hw             uint32
	instr          uint64 // instructions retired so far
	condBranches   uint64 // conditional branches after warm-up
	mispredictions uint64
	warmup         uint64
	limit          uint64 // absolute instruction limit, 0 = none

	col *obs.Collector // dispatch counters and batch-size histogram; nil = off
}

func newRunLoop(cfg Config) *runLoop {
	l := &runLoop{warmup: cfg.WarmupInstructions, col: cfg.Metrics}
	if !cfg.metricsOnly {
		l.counters = countersPool.Get().(*counters)
	}
	if cfg.SimInstructions > 0 {
		l.limit = cfg.WarmupInstructions + cfg.SimInstructions
	}
	return l
}

// release returns the loop's counters to their pool, once; l must not be
// used again. A nil loop holds nothing.
func (l *runLoop) release() {
	if l != nil && l.counters != nil {
		l.counters.release()
		l.counters = nil
	}
}

// setView adopts the view that came with a batch, growing the counters, if
// the loop keeps them, to cover every address it holds.
func (l *runLoop) setView(v tracecache.View) {
	l.view, l.ips = v, v.IPs
	if l.counters != nil {
		l.grow(len(v.IPs))
	}
}

// process consumes one batch of records from off on, whose ids index v,
// returning true when the instruction limit was reached and the simulation
// must stop mid-trace. pb is the preparation of the batch that every lane
// of the reading shares, made on first need; off is non-zero only for a
// lane that passes over the prefix a restored checkpoint accounts for.
//
// When the warm-up window is already behind and the batch's instructions
// cannot reach the limit, the batch runs through the fast path: the
// prepared branches go to the predictor in one bp.SimulateBatch call — one
// TrainBatch for predictors with a native kernel, the scalar
// Predict/Train/Track sequence otherwise — and one branch-free pass folds
// the recorded predictions into the counters. Batches straddling a warm-up
// or limit boundary (the edge batches) fall back to careful, which is also
// the body of the scalar reference loop, so boundary semantics are decided
// by exactly one piece of code on either dispatch path.
func (l *runLoop) process(b []tracecache.Record, off int, v tracecache.View, p bp.Predictor, pb *prepared) bool {
	l.setView(v)
	recs := b[off:]
	l.col.Hist(obs.HistBatchEvents).Observe(uint64(len(recs)))
	if l.instr >= l.warmup {
		pb.prepare(b, v)
		instrs := pb.span
		if off > 0 {
			instrs = span(recs)
		}
		if l.limit == 0 || l.instr+instrs < l.limit {
			if _, ok := p.(bp.BatchPredictor); ok {
				l.col.Ctr(obs.CtrDispatchKernel).Add(1)
			} else {
				l.col.Ctr(obs.CtrDispatchScalar).Add(1)
			}
			l.simulate(p, pb, off)
			// The batch's highest IP id serves a restored lane too: settle
			// made sure its hw covers the prefix it passed over.
			l.instr, l.hw = l.instr+instrs, max(l.hw, pb.hw)
			return false
		}
	}
	l.col.Ctr(obs.CtrDispatchScalar).Add(1)
	return l.careful(recs, p)
}

// span is the number of instructions recs retire. It bounds the batch
// exactly: BT9 gaps are not held to the 12 bits of an SBBT packet.
func span(recs []tracecache.Record) uint64 {
	n := uint64(len(recs))
	for _, r := range recs {
		n += r.Gap()
	}
	return n
}

// count records one conditional branch past warm-up in the totals and,
// if the loop keeps counters, at IP id.
func (l *runLoop) count(id uint32, mispredicted bool) {
	m := b2u(mispredicted)
	l.condBranches++
	l.mispredictions += m
	if l.counters != nil {
		l.occ[id]++
		l.missed[id] += m
	}
}

// simulate runs the prepared batch from off on through p and folds the
// predictions into the totals and, if the loop keeps them, the counters
// indexed by IP id. Splitting simulation from accounting keeps the kernel
// free of counter traffic (so predictor tables stay hot in cache) while
// producing exactly the counts the scalar loop accumulates. The
// accounting pass has no branch: a non-conditional record adds zero,
// whatever its stale prediction.
func (l *runLoop) simulate(p bp.Predictor, pb *prepared, off int) {
	// Slices of equal length let the loop index preds and missed unchecked.
	acc := pb.acc[off:]
	preds := pb.preds[off:][:len(acc)]
	bp.SimulateBatch(p, pb.branches[off:], preds)
	cond, miss := l.condBranches, l.mispredictions
	if l.counters == nil {
		for i, a := range acc {
			c := uint64(a & 1)
			cond += c
			miss += (b2u(bool(preds[i])) ^ uint64(a>>1&1)) & c
		}
		l.condBranches, l.mispredictions = cond, miss
		return
	}
	occ := l.occ
	missed := l.missed[:len(occ)]
	for i, a := range acc {
		c := uint64(a & 1)
		m := (b2u(bool(preds[i])) ^ uint64(a>>1&1)) & c
		id := a >> 2
		occ[id] += c
		missed[id] += m
		cond += c
		miss += m
	}
	l.condBranches, l.mispredictions = cond, miss
}

// result assembles the final Result from the loop state, timed as
// obs.StageResult, and returns the counters to their pool; elapsed is the
// run's simulation time. It is Listing 1's whole report, or with
// cfg.metricsOnly the result of a sweep cell: most_failed nil and
// num_most_failed_branches 0, from a loop that kept no counters.
func (l *runLoop) result(p bp.Predictor, cfg Config, exhausted bool, elapsed time.Duration) *Result {
	tRes := l.col.Now()
	defer l.col.Stage(obs.StageResult).Since(tRes)
	simInstr := l.simInstr()
	res := &Result{
		Metadata: Metadata{
			Simulator:              Name,
			Version:                Version,
			Trace:                  cfg.TraceName,
			WarmupInstr:            cfg.WarmupInstructions,
			SimulationInstr:        simInstr,
			ExhaustedTrace:         exhausted,
			NumConditionalBranches: l.condBranches,
			NumBranchInstructions:  uint64(l.hw),
			Predictor:              predictorMetadata(p),
		},
		PredictorStatistics: predictorStatistics(p),
	}
	m := l.summary()
	res.Metrics = Metrics{
		MPKI:           m.MPKI,
		Mispredictions: m.Mispredictions,
		Accuracy:       m.Accuracy,
		SimulationTime: elapsed.Seconds(),
	}
	if l.counters != nil && l.mispredictions > 0 {
		hw := l.hw
		res.MostFailed, res.Metrics.NumMostFailedBranches = mostFailed(l.ips, l.occ[:hw], l.missed[:hw], sortByIP(l.ips[:hw]), l.mispredictions, simInstr, cfg.MostFailedLimit)
	}
	l.release()
	return res
}

// simInstr is the number of instructions simulated past warm-up.
func (l *runLoop) simInstr() uint64 {
	if l.instr > l.warmup {
		return l.instr - l.warmup
	}
	return 0
}

// summary returns the run's mispredictions, MPKI and accuracy; MPKI and
// accuracy are 0 when their denominator is.
func (l *runLoop) summary() CompareMetrics {
	m := CompareMetrics{Mispredictions: l.mispredictions}
	if simInstr := l.simInstr(); simInstr > 0 {
		m.MPKI = float64(l.mispredictions) / (float64(simInstr) / 1000)
	}
	if l.condBranches > 0 {
		m.Accuracy = 1 - float64(l.mispredictions)/float64(l.condBranches)
	}
	return m
}

// stage is the stage a batch starting now is timed as: a batch starting
// inside the warm-up window counts as warm-up even if it crosses the
// boundary.
func (l *runLoop) stage() obs.Stage {
	if l.instr < l.warmup {
		return obs.StageWarmup
	}
	return obs.StageSim
}

// Run simulates predictor p over the events of r under cfg.
//
// For every branch the simulator invokes Track; for conditional branches it
// first obtains a prediction and invokes Train (§IV-B). Mispredictions of
// branches whose instruction number falls within the warm-up window are not
// counted. The returned error is non-nil only for trace decoding failures;
// an empty or all-warm-up run yields zeroed metrics.
//
// Run consumes the trace in batches (bp.ReadBatch) and decodes ahead: a
// single prefetch goroutine double-buffers the next batch — including any
// decompression the reader performs — while this goroutine simulates the
// current one, as a one-lane group of the stream driver that runs every
// SweepParallel trace group. Results are identical to the scalar reference
// loop (RunScalar); a panic inside the reader or the predictor is
// converted to a faults.ErrPredictorPanic-classified error, as a sweep
// classifies it. The reader is no longer in use when Run returns.
func Run(r bp.Reader, p bp.Predictor, cfg Config) (*Result, error) {
	open := func() (batchStream, error) { return newPrefetchStream(r, nil, cfg.Metrics), nil }
	return runCell(context.TODO(), nil, open, func() bp.Predictor { return p }, cfg, nil)
}

// RunScalar is the scalar reference implementation of Run: one Read call,
// one event, per loop iteration, with the warm-up and limit checks in the
// per-event path. It exists as the semantic baseline the batched pipeline
// is tested against (and as the measured "before" of the batching
// optimisation); new callers should prefer Run.
func RunScalar(r bp.Reader, p bp.Predictor, cfg Config) (*Result, error) {
	start := time.Now()
	loop := newRunLoop(cfg)
	defer loop.release()
	tab := tablePool.Get().(*tracecache.Table)
	defer releaseTable(tab)
	var rec [1]tracecache.Record
	exhausted := false
	for {
		ev, err := r.Read()
		if err == nil {
			_, err = tab.Intern(rec[:0], []bp.Event{ev})
		}
		if err != nil {
			if err == io.EOF {
				exhausted = true
				break
			}
			return nil, err
		}
		loop.setView(tab.View())
		if loop.careful(rec[:], p) {
			break
		}
	}
	return loop.result(p, cfg, exhausted, time.Since(start)), nil
}

// careful simulates events one at a time with the warm-up and limit checks
// in line, returning true when the instruction limit was reached: the edge
// batches of process and, one event per call, the scalar reference loop.
func (l *runLoop) careful(recs []tracecache.Record, p bp.Predictor) bool {
	statics := l.view.Statics
	for _, r := range recs {
		s := &statics[r.ID]
		l.instr += r.Gap() + 1
		b := s.Branch(r)
		l.hw = max(l.hw, s.IPID+1)
		if b.Opcode.IsConditional() {
			predicted := p.Predict(b.IP)
			if l.instr > l.warmup {
				l.count(s.IPID, predicted != b.Taken)
			}
			p.Train(b)
		}
		p.Track(b)
		if l.limit > 0 && l.instr >= l.limit {
			return true
		}
	}
	return false
}

// predictorMetadata extracts the predictor description for the metadata
// section, if the predictor provides one.
func predictorMetadata(p bp.Predictor) map[string]any {
	if mp, ok := p.(bp.MetadataProvider); ok {
		return mp.Metadata()
	}
	return map[string]any{}
}

// predictorStatistics extracts the predictor's execution statistics, if it
// records any.
func predictorStatistics(p bp.Predictor) map[string]any {
	if sp, ok := p.(bp.StatsProvider); ok {
		return sp.Statistics()
	}
	return map[string]any{}
}

// ErrNilPredictor is returned by Compare and SweepParallel when a
// predictor or predictor constructor is missing.
var ErrNilPredictor = errors.New("sim: nil predictor")
