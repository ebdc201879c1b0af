package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/faults"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/sim/tracecache"
	"mbplib/internal/tracegen"
)

// takenPredictor is a trivial deterministic predictor for equivalence runs.
type takenPredictor struct{}

func (takenPredictor) Predict(uint64) bool { return true }
func (takenPredictor) Train(bp.Branch)     {}
func (takenPredictor) Track(bp.Branch)     {}

// fusedPredictor panics after a fixed number of predictions.
type fusedPredictor struct{ fuse int }

func (p *fusedPredictor) Predict(uint64) bool {
	if p.fuse--; p.fuse < 0 {
		panic("deliberate test panic")
	}
	return true
}
func (p *fusedPredictor) Train(bp.Branch) {}
func (p *fusedPredictor) Track(bp.Branch) {}

func genSource(spec tracegen.Spec) sim.TraceSource {
	return sim.TraceSource{Name: spec.Name, Open: func() (bp.Reader, io.Closer, error) {
		g, err := tracegen.New(spec)
		return g, nil, err
	}}
}

func suiteSpecs(t *testing.T, n uint64) []tracegen.Spec {
	t.Helper()
	specs, err := tracegen.Suite("cbp5-train", n)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func genSources(t *testing.T, n uint64) []sim.TraceSource {
	t.Helper()
	var srcs []sim.TraceSource
	for _, spec := range suiteSpecs(t, n) {
		srcs = append(srcs, genSource(spec))
	}
	return srcs
}

// lateCorruptSource encodes a checksummed SBBT trace of the spec's events and
// flips a bit in the final chunk, so the decode delivers most of the stream
// before failing with a corruption error.
func lateCorruptSource(t *testing.T, name string, spec tracegen.Spec) sim.TraceSource {
	t.Helper()
	data := encodeSBBT(t, generate(t, spec), true)
	data[len(data)-10] ^= 0x01
	return sim.TraceSource{Name: name, Open: func() (bp.Reader, io.Closer, error) {
		r, err := sbbt.NewReader(bytes.NewReader(data))
		return r, nil, err
	}}
}

var equivPredictors = []sim.PredictorSpec{
	{Name: "taken", New: func() bp.Predictor { return takenPredictor{} }},
	{Name: "gshare", New: func() bp.Predictor { return gshare.New() }},
}

// sequentialSweep is the oracle the scheduler must match: every cell in
// order through sim.Run on a freshly opened reader, open errors and panics
// classified the way a sweep reports them. The sweep contract is kept here
// and nowhere else: a cell's result is sim.Run's without the most_failed
// report, so the oracle clears most_failed and num_most_failed_branches.
func sequentialSweep(t *testing.T, srcs []sim.TraceSource, preds []sim.PredictorSpec, cfg sim.Config) []*sim.SetResult {
	t.Helper()
	out := make([]*sim.SetResult, len(preds))
	for i, ps := range preds {
		set := &sim.SetResult{Results: make([]*sim.Result, len(srcs))}
		for ti, src := range srcs {
			res, err := oracleCell(src, ps.New(), cfg)
			if err != nil {
				set.Failures = append(set.Failures, sim.TraceFailure{
					Trace: src.Name, Class: faults.Class(err), Message: err.Error(), Attempts: 1, Err: err,
				})
				continue
			}
			res.MostFailed, res.Metrics.NumMostFailedBranches = nil, 0
			set.Results[ti] = res
		}
		out[i] = set
	}
	return out
}

// oracleCell runs one cell of sequentialSweep.
func oracleCell(src sim.TraceSource, p bp.Predictor, cfg sim.Config) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, faults.NewPanicError(v, nil)
		}
	}()
	r, closer, err := src.Open()
	if err != nil {
		return nil, fmt.Errorf("opening: %w", err)
	}
	if closer != nil {
		defer closer.Close()
	}
	cfg.TraceName = src.Name
	return sim.Run(r, p, cfg)
}

// setJSON renders a SetResult with the nondeterministic fields zeroed: each
// result's wall-clock time, and failure stacks (goroutine dumps name
// different frames in the oracle and in the scheduler).
func setJSON(t *testing.T, set *sim.SetResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("{\"results\":[")
	for i, r := range set.Results {
		if i > 0 {
			buf.WriteByte(',')
		}
		if r == nil {
			buf.WriteString("null")
			continue
		}
		buf.Write(resultJSON(t, r))
	}
	buf.WriteString("],\"failures\":[")
	for i, f := range set.Failures {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "{%q,%q,%q,%d}", f.Trace, f.Class, f.Message, f.Attempts)
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

func diffSweeps(t *testing.T, seq, par []*sim.SetResult, preds []sim.PredictorSpec) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		sj, pj := setJSON(t, seq[i]), setJSON(t, par[i])
		if !bytes.Equal(sj, pj) {
			t.Errorf("predictor %s: parallel result differs from sequential\nseq: %s\npar: %s",
				preds[i].Name, sj, pj)
		}
	}
}

// TestSweepParallelMatchesSequential is the core acceptance suite: for every
// reader kind and several warmup/limit configs, a 4-worker sweep must produce
// byte-identical result JSON to the sim.Run oracle.
func TestSweepParallelMatchesSequential(t *testing.T) {
	specA, specB := equivSpec(12000), equivSpec(8000)
	specB.Name, specB.Seed = "equiv-b", 31
	readersA := equivReaders(t, specA)
	readersB := equivReaders(t, specB)
	configs := map[string]sim.Config{
		"plain":  {},
		"warmup": {WarmupInstructions: 4000},
		"limit":  {SimInstructions: 6000},
		"both":   {WarmupInstructions: 2000, SimInstructions: 5000},
	}
	for kind := range readersA {
		openA, openB := readersA[kind], readersB[kind]
		srcs := []sim.TraceSource{
			{Name: "a-" + kind, Open: func() (bp.Reader, io.Closer, error) { return openA(), nil, nil }},
			{Name: "b-" + kind, Open: func() (bp.Reader, io.Closer, error) { return openB(), nil, nil }},
		}
		for cname, cfg := range configs {
			t.Run(kind+"/"+cname, func(t *testing.T) {
				seq := sequentialSweep(t, srcs, equivPredictors, cfg)
				par, err := sim.SweepParallel(srcs, equivPredictors, cfg, sim.ParallelOptions{
					Cache:   sim.NewCache(0),
					Workers: 4, Policy: sim.Policy{Mode: sim.SkipFailed},
				})
				if err != nil {
					t.Fatalf("SweepParallel: %v", err)
				}
				diffSweeps(t, seq, par, equivPredictors)
			})
		}
	}
}

// TestSweepParallelLimitBeforeCorruption: a trace corrupt near its end
// succeeds under an instruction limit that stops before the bad bytes — on
// both paths — and fails identically once the limit passes the corruption.
// The second predictor exercises the cached partial-batches replay.
func TestSweepParallelLimitBeforeCorruption(t *testing.T) {
	srcs := []sim.TraceSource{lateCorruptSource(t, "late-corrupt", equivSpec(20000))}
	for _, tc := range []struct {
		name    string
		cfg     sim.Config
		wantErr bool
	}{
		{"limit-stops-early", sim.Config{SimInstructions: 1000}, false},
		{"limit-past-fault", sim.Config{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := sequentialSweep(t, srcs, equivPredictors, tc.cfg)
			par, err := sim.SweepParallel(srcs, equivPredictors, tc.cfg, sim.ParallelOptions{
				Cache:   sim.NewCache(0),
				Workers: 2, Policy: sim.Policy{Mode: sim.SkipFailed},
			})
			if err != nil {
				t.Fatalf("SweepParallel: %v", err)
			}
			for pi := range equivPredictors {
				failed := len(par[pi].Failures) > 0
				if failed != tc.wantErr {
					t.Errorf("predictor %d: failed=%v, want %v", pi, failed, tc.wantErr)
				}
				if tc.wantErr && par[pi].Failures[0].Class != "corrupt" {
					t.Errorf("predictor %d: class %q, want corrupt", pi, par[pi].Failures[0].Class)
				}
			}
			diffSweeps(t, seq, par, equivPredictors)
		})
	}
}

// TestSweepParallelTruncatedGzip: a .sbbt.gz cut mid-stream ends in gzip's
// io.ErrUnexpectedEOF, an error outside the faults taxonomy. It is a
// property of the bytes, so the cache keeps it with the events decoded
// before it: a run limited to stop before the cut succeeds, and one that
// reads past it fails, byte-identically with the cache on and off.
func TestSweepParallelTruncatedGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.sbbt.gz")
	var buf bytes.Buffer
	zw, err := compress.NewWriter(&buf, compress.FormatGzip, compress.LevelBest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(encodeSBBT(t, generate(t, equivSpec(20000)), false)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	srcs := []sim.TraceSource{mlzsSource(path)} // a plain file source
	for _, tc := range []struct {
		name    string
		cfg     sim.Config
		wantErr bool
	}{
		{"limit-stops-early", sim.Config{SimInstructions: 1000}, false},
		{"limit-past-cut", sim.Config{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := sequentialSweep(t, srcs, equivPredictors, tc.cfg)
			var runs [2][]*sim.SetResult
			for i, cacheBytes := range []int64{0, -1} {
				runs[i], err = sim.SweepParallel(srcs, equivPredictors, tc.cfg, sim.ParallelOptions{
					Workers: 2, Cache: sim.NewCache(cacheBytes), Policy: sim.Policy{Mode: sim.SkipFailed},
				})
				if err != nil {
					t.Fatalf("SweepParallel (cache bytes %d): %v", cacheBytes, err)
				}
			}
			for pi := range equivPredictors {
				if failed := len(runs[0][pi].Failures) > 0; failed != tc.wantErr {
					t.Errorf("predictor %d: failed=%v, want %v", pi, failed, tc.wantErr)
				}
			}
			diffSweeps(t, runs[1], runs[0], equivPredictors)
			diffSweeps(t, seq, runs[0], equivPredictors)
		})
	}
}

// TestSweepParallelInterleavedFailures: a corrupt trace and a panicking
// predictor poison exactly their own (trace, predictor) cells. Every other
// cell matches the sequential sweep byte for byte.
func TestSweepParallelInterleavedFailures(t *testing.T) {
	srcs := genSources(t, 2000)
	if len(srcs) < 4 {
		t.Fatalf("suite too small: %d traces", len(srcs))
	}
	corruptAt := 1
	srcs[corruptAt] = lateCorruptSource(t, "corrupt-trace", equivSpec(2000))
	preds := []sim.PredictorSpec{
		{Name: "taken", New: func() bp.Predictor { return takenPredictor{} }},
		{Name: "fused", New: func() bp.Predictor { return &fusedPredictor{fuse: 40} }},
		{Name: "gshare", New: func() bp.Predictor { return gshare.New() }},
	}
	policy := sim.Policy{Mode: sim.SkipFailed}
	seq := sequentialSweep(t, srcs, preds, sim.Config{})
	par, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 4, Policy: policy})
	if err != nil {
		t.Fatalf("SweepParallel: %v", err)
	}
	diffSweeps(t, seq, par, preds)

	// The fused predictor fails on every trace; the healthy predictors fail
	// only on the corrupt trace.
	for pi, ps := range preds {
		for ti := range srcs {
			got := par[pi].Results[ti] != nil
			want := ps.Name != "fused" && ti != corruptAt
			if got != want {
				t.Errorf("cell (%s, %s): scored=%v, want %v", ps.Name, srcs[ti].Name, got, want)
			}
		}
	}
	for ti, f := range par[1].Failures {
		if ti == corruptAt {
			continue // fuse may or may not blow before the corruption point
		}
		if f.Class != "panic" || !errors.Is(f.Err, faults.ErrPredictorPanic) {
			t.Errorf("fused failure on %s: class %q err %v, want panic", f.Trace, f.Class, f.Err)
		}
	}
	if f := par[0].Failures[0]; f.Trace != "corrupt-trace" || f.Class != "corrupt" {
		t.Errorf("taken failure = %+v, want corrupt-trace/corrupt", f)
	}
}

// TestSweepParallelFailFast: the first failure cancels the sweep and is
// returned as a *SweepError carrying the fault taxonomy.
func TestSweepParallelFailFast(t *testing.T) {
	srcs := genSources(t, 1500)
	srcs[0] = lateCorruptSource(t, "corrupt-trace", equivSpec(1500))
	_, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 4, Policy: sim.Policy{Mode: sim.FailFast},
	})
	if err == nil {
		t.Fatal("FailFast sweep with a corrupt trace returned nil error")
	}
	var se *sim.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *SweepError", err, err)
	}
	if se.Trace != "corrupt-trace" || !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("SweepError = %+v, want corrupt-trace wrapping ErrCorrupt", se)
	}
}

// TestSweepParallelOnePredictorMatchesOracle: a one-predictor sweep matches the
// sim.Run oracle, failures included, at one worker and four, and its
// FailFast error text is the same at both.
func TestSweepParallelOnePredictorMatchesOracle(t *testing.T) {
	srcs := genSources(t, 2500)
	srcs[2] = lateCorruptSource(t, "corrupt-trace", equivSpec(2500))
	preds := []sim.PredictorSpec{{Name: "gshare", New: func() bp.Predictor { return gshare.New() }}}
	seq := sequentialSweep(t, srcs, preds, sim.Config{})
	errText := map[int]string{}
	for _, workers := range []int{1, 4} {
		par, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{
			Cache:   sim.NewCache(0),
			Workers: workers, Policy: sim.Policy{Mode: sim.SkipFailed},
		})
		if err != nil {
			t.Fatal(err)
		}
		diffSweeps(t, seq, par, preds)

		_, err = sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{
			Cache:   sim.NewCache(0),
			Workers: workers, Policy: sim.Policy{Mode: sim.FailFast},
		})
		if err == nil {
			t.Fatalf("%d workers: FailFast sweep over a corrupt trace returned nil error", workers)
		}
		errText[workers] = err.Error()
	}
	if !strings.HasPrefix(errText[1], `gshare: sim: trace "corrupt-trace": `) {
		t.Errorf("FailFast error = %q, want the cell's predictor and trace first", errText[1])
	}
	if errText[1] != errText[4] {
		t.Errorf("FailFast error text differs:\n1 worker:  %v\n4 workers: %v", errText[1], errText[4])
	}
}

// TestSweepParallelCacheBudgets: a cache too small to pin anything and a
// disabled cache both fall back to streaming with identical results.
func TestSweepParallelCacheBudgets(t *testing.T) {
	srcs := genSources(t, 2000)
	seq := sequentialSweep(t, srcs, equivPredictors, sim.Config{})
	for _, budget := range []int64{64, -1} {
		par, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
			Workers: 4, Cache: sim.NewCache(budget), Policy: sim.Policy{Mode: sim.SkipFailed},
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		diffSweeps(t, seq, par, equivPredictors)
	}
}

func TestSweepParallelNilPredictor(t *testing.T) {
	srcs := genSources(t, 500)
	_, err := sim.SweepParallel(srcs, []sim.PredictorSpec{{Name: "nil"}}, sim.Config{}, sim.ParallelOptions{})
	if !errors.Is(err, sim.ErrNilPredictor) {
		t.Errorf("err = %v, want ErrNilPredictor", err)
	}
}

// manyMissTrace writes a trace over 4096 near-random static branches as an
// aligned MLZS container and returns its path. sim.Run's most_failed report
// over it lists more than a thousand branches, for gshare and for taken.
func manyMissTrace(t *testing.T) string {
	t.Helper()
	spec := tracegen.Spec{
		Name: "many-miss", Seed: 0x5EED, Branches: 30000, ChunkLen: 16,
		Kernels: []tracegen.KernelSpec{{Kind: tracegen.Biased, Branches: 4096, Bias: 0.5, GapMean: 9}},
	}
	path := filepath.Join(t.TempDir(), "many-miss.sbbt.mlzs")
	writeMLZS(t, path, generate(t, spec), 64<<10)
	return path
}

// TestSweepParallelCellsAreMetricsOnly: streaming, loading into the cache
// and replaying from it, a sweep cell's result is sim.Run's with
// most_failed and num_most_failed_branches cleared, on a trace whose full
// report is long.
func TestSweepParallelCellsAreMetricsOnly(t *testing.T) {
	path := manyMissTrace(t)
	for _, ps := range equivPredictors {
		full, err := oracleCell(mlzsSource(path), ps.New(), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(full.MostFailed); n <= 1000 || full.Metrics.NumMostFailedBranches != n {
			t.Fatalf("%s: sim.Run reports %d most_failed rows (metric %d), want the same count above 1000", ps.Name, n, full.Metrics.NumMostFailedBranches)
		}
	}
	shared := sim.NewCache(0)
	for _, tc := range []struct {
		name  string
		cache *tracecache.Cache
	}{
		{"streaming", nil},
		{"cached", shared},
		{"warm", shared},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srcs := []sim.TraceSource{mlzsSource(path)}
			par, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
				Workers: 2, Cache: tc.cache, Policy: sim.Policy{Mode: sim.SkipFailed},
			})
			if err != nil {
				t.Fatal(err)
			}
			for pi, set := range par {
				if res := set.Results[0]; res == nil || res.MostFailed != nil || res.Metrics.NumMostFailedBranches != 0 {
					t.Errorf("%s: cell result %+v, want one without most_failed", equivPredictors[pi].Name, res)
				}
			}
			diffSweeps(t, sequentialSweep(t, srcs, equivPredictors, sim.Config{}), par, equivPredictors)
		})
	}
}
