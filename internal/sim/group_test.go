// Trace-group tests: the cells of a trace run as lanes of one stream, and
// each lane keeps the contract of a cell of its own — its own failures,
// its own checkpoint, its own deadline — against the sim.Run oracle.
package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sim/tracecache"
)

// gsharePreds is n gshare configurations with distinct history lengths.
func gsharePreds(n int) []sim.PredictorSpec {
	preds := make([]sim.PredictorSpec, n)
	for i := range preds {
		h := 4 + 2*i
		preds[i] = sim.PredictorSpec{Name: fmt.Sprintf("gshare-h%d", h), New: func() bp.Predictor {
			return gshare.New(gshare.WithHistoryLength(h))
		}}
	}
	return preds
}

// countOpens wraps every source's Open with a per-trace counter.
func countOpens(srcs []sim.TraceSource) []*atomic.Int32 {
	counts := make([]*atomic.Int32, len(srcs))
	for i := range srcs {
		counts[i] = new(atomic.Int32)
		open, n := srcs[i].Open, counts[i]
		srcs[i].Open = func() (bp.Reader, io.Closer, error) {
			n.Add(1)
			return open()
		}
	}
	return counts
}

// TestSweepParallelOpensEachTraceOnce: with at least as many traces as
// workers, a sweep opens each trace once, whatever the number of
// predictors; with fewer, a trace's predictors split into at most
// ceil(workers / traces) groups, each opening it once. Either way, with
// the cache on and off, the results are the oracle's.
func TestSweepParallelOpensEachTraceOnce(t *testing.T) {
	preds := gsharePreds(5)
	all := genSources(t, 2000)
	seq := sequentialSweep(t, all, preds, sim.Config{})
	for _, tc := range []struct {
		traces, workers int
		maxOpens        int32
	}{
		{len(all), 4, 1},
		{len(all), 1, 1},
		{2, 4, 2},
		{1, 3, 3},
		{1, 8, 5}, // never more groups than predictors
	} {
		for _, cacheBytes := range []int64{-1, 0} {
			name := fmt.Sprintf("%d traces, %d workers, cache %d", tc.traces, tc.workers, cacheBytes)
			srcs := append([]sim.TraceSource(nil), all[:tc.traces]...)
			opens := countOpens(srcs)
			par, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{
				Workers: tc.workers, Cache: sim.NewCache(cacheBytes), Policy: sim.Policy{Mode: sim.SkipFailed},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for ti, n := range opens {
				if got := n.Load(); got < 1 || got > tc.maxOpens {
					t.Errorf("%s: trace %d opened %d times, want 1 to %d", name, ti, got, tc.maxOpens)
				}
			}
			want := make([]*sim.SetResult, len(preds))
			for pi, set := range seq {
				want[pi] = &sim.SetResult{Results: set.Results[:tc.traces]}
			}
			diffSweeps(t, want, par, preds)
		}
	}
}

// TestSweepParallelPanickingLaneFailsAlone: a predictor that panics fails
// its own lane on every trace, while its sibling lanes in the same groups
// finish, each equal to a sweep of that predictor alone and to the
// oracle — also when the instruction limit ends the reading in the batch
// where the lane panics.
func TestSweepParallelPanickingLaneFailsAlone(t *testing.T) {
	for _, cfg := range []sim.Config{{}, {SimInstructions: 1000}} {
		panickingLaneFailsAlone(t, cfg)
	}
}

func panickingLaneFailsAlone(t *testing.T, cfg sim.Config) {
	srcs := genSources(t, 2000)
	preds := gsharePreds(3)
	preds = append(preds[:1], append([]sim.PredictorSpec{{Name: "fused", New: func() bp.Predictor { return &fusedPredictor{fuse: 40} }}}, preds[1:]...)...)
	opts := sim.ParallelOptions{Workers: 2, Policy: sim.Policy{Mode: sim.SkipFailed}}
	par, err := sim.SweepParallel(srcs, preds, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	diffSweeps(t, sequentialSweep(t, srcs, preds, cfg), par, preds)
	for pi, ps := range preds {
		if ps.Name == "fused" {
			if len(par[pi].Failures) != len(srcs) {
				t.Fatalf("fused lane failed on %d of %d traces", len(par[pi].Failures), len(srcs))
			}
			for _, f := range par[pi].Failures {
				if f.Class != "panic" || !errors.Is(f.Err, faults.ErrPredictorPanic) || f.Stack == "" {
					t.Errorf("fused failure on %s: class %q err %v, want a panic with its stack", f.Trace, f.Class, f.Err)
				}
			}
			continue
		}
		solo, err := sim.SweepParallel(srcs, []sim.PredictorSpec{ps}, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s, g := setJSON(t, solo[0]), setJSON(t, par[pi]); !bytes.Equal(s, g) {
			t.Errorf("%s: lane beside a panicking one differs from a solo sweep\nsolo:  %s\ngroup: %s", ps.Name, s, g)
		}
	}
}

// namedSpy is spySpec under another name and history length, so several
// spies can be lanes of one group with checkpoints of their own.
func namedSpy(name string, h int, n *atomic.Uint64, after uint64, trigger func()) sim.PredictorSpec {
	return sim.PredictorSpec{Name: name, New: func() bp.Predictor {
		return bp.ScalarOnly(&ckptSpy{Predictor: gshare.New(gshare.WithHistoryLength(h)), n: n, after: after, trigger: trigger})
	}}
}

// drainAt runs spec alone over src with a journal in dir, drained once the
// spec's predictor has made after predictions, and returns the checkpoint
// the drain left.
func drainAt(t *testing.T, dir string, src sim.TraceSource, name string, h int, after uint64, cfg sim.Config) journal.CheckpointRecord {
	t.Helper()
	jnl := openJournal(t, dir)
	defer jnl.Close()
	drain := make(chan struct{})
	var once sync.Once
	var n atomic.Uint64
	spec := namedSpy(name, h, &n, after, func() { once.Do(func() { close(drain) }) })
	if _, err := sim.SweepParallel([]sim.TraceSource{src}, []sim.PredictorSpec{spec}, cfg, sim.ParallelOptions{
		Workers: 1, Journal: jnl, CheckpointEvery: 1 << 40, Drain: drain,
	}); err != nil {
		t.Fatalf("drained sweep of %s: %v", name, err)
	}
	ck, ok := jnl.Checkpoint(sim.CellKey(src, name, cfg))
	if !ok || ck.Events == 0 {
		t.Fatalf("drain of %s after %d predictions left no checkpoint", name, after)
	}
	return ck
}

// TestSweepParallelLanesResumeOwnCheckpoints: three lanes of one group
// resume from the journal — two restored from checkpoints at different
// positions of the trace, one whose checkpoint describes another trace —
// and finish byte-identical to an uninterrupted sweep. The restored lanes
// skip their prefixes; the stale one reruns fresh.
func TestSweepParallelLanesResumeOwnCheckpoints(t *testing.T) {
	specs := suiteSpecs(t, 30_000)[:2]
	srcs := []sim.TraceSource{genSource(specs[0])}
	other := genSource(specs[1])
	cond := uint64(0)
	for _, ev := range generate(t, specs[0]) {
		if ev.Branch.IsConditional() {
			cond++
		}
	}
	cfg := sim.Config{WarmupInstructions: 5000}
	dir := t.TempDir()
	ckA := drainAt(t, dir, srcs[0], "spy-a", 10, cond/4, cfg)
	ckB := drainAt(t, dir, srcs[0], "spy-b", 12, cond/2, cfg)
	if ckA.Events == ckB.Events {
		t.Fatalf("both checkpoints at %d events; the test needs two positions", ckA.Events)
	}
	foreign := drainAt(t, dir, other, "spy-c", 14, cond/4, cfg)
	jnl := openJournal(t, dir)
	if _, err := jnl.AppendCheckpoint(journal.CheckpointRecord{Key: sim.CellKey(srcs[0], "spy-c", cfg), Events: foreign.Events, State: foreign.State}); err != nil {
		t.Fatal(err)
	}
	if n := jnl.CellCount(); n != 0 {
		t.Fatalf("journal holds %d final cells before the resume, want 0", n)
	}

	var baseN [3]atomic.Uint64
	base := []sim.PredictorSpec{namedSpy("spy-a", 10, &baseN[0], 0, nil), namedSpy("spy-b", 12, &baseN[1], 0, nil), namedSpy("spy-c", 14, &baseN[2], 0, nil)}
	baseline, err := sim.SweepParallel(srcs, base, cfg, sim.ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var resumeN [3]atomic.Uint64
	var built [3]atomic.Int32
	resume := []sim.PredictorSpec{namedSpy("spy-a", 10, &resumeN[0], 0, nil), namedSpy("spy-b", 12, &resumeN[1], 0, nil), namedSpy("spy-c", 14, &resumeN[2], 0, nil)}
	for i := range resume {
		inner := resume[i].New
		resume[i].New = func() bp.Predictor { built[i].Add(1); return inner() }
	}
	resumed, err := sim.SweepParallel(srcs, resume, cfg, sim.ParallelOptions{Workers: 1, Journal: jnl, CheckpointEvery: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	diffSweeps(t, baseline, resumed, base)
	for i := range 2 {
		if got, full := resumeN[i].Load(), baseN[i].Load(); got == 0 || got >= full {
			t.Errorf("%s made %d predictions on resume vs %d uninterrupted: its checkpointed prefix was not skipped", base[i].Name, got, full)
		}
		if b := built[i].Load(); b != 1 {
			t.Errorf("%s built %d predictors, want 1 (checkpoint accepted)", base[i].Name, b)
		}
	}
	if got, full := resumeN[2].Load(), baseN[2].Load(); got != full {
		t.Errorf("spy-c made %d predictions on resume vs %d uninterrupted, want the same: a skipped stale prefix, then the whole trace fresh", got, full)
	}
	if b := built[2].Load(); b != 2 {
		t.Errorf("spy-c built %d predictors, want 2 (stale checkpoint restored, then a fresh rerun)", b)
	}
}

// sleepyPredictor predicts taken and sleeps once, on its first prediction.
type sleepyPredictor struct {
	takenPredictor
	d     time.Duration
	slept bool
}

func (p *sleepyPredictor) Predict(uint64) bool {
	if !p.slept {
		p.slept = true
		time.Sleep(p.d)
	}
	return true
}

// TestSweepParallelCellTimeoutSlowLane: a cell's budget is its group's
// shared time plus its own simulation time, so a lane slower than the
// budget fails as a final deadline fault while a fast sibling in the same
// group finishes, equal to the oracle.
func TestSweepParallelCellTimeoutSlowLane(t *testing.T) {
	srcs := genSources(t, 4000)[:2]
	preds := []sim.PredictorSpec{
		{Name: "slow", New: func() bp.Predictor { return &sleepyPredictor{d: 800 * time.Millisecond} }},
		{Name: "taken", New: func() bp.Predictor { return takenPredictor{} }},
	}
	jnl := openJournal(t, t.TempDir())
	defer jnl.Close()
	par, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{
		Workers: 2, Policy: sim.Policy{Mode: sim.SkipFailed}, Journal: jnl, CellTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(par[0].Failures) != len(srcs) {
		t.Fatalf("slow lane: failures %+v, want one per trace", par[0].Failures)
	}
	for _, f := range par[0].Failures {
		if f.Class != "deadline" || f.Resumable || !errors.Is(f.Err, faults.ErrDeadline) {
			t.Errorf("slow lane on %s: class=%q resumable=%v err=%v, want a final deadline fault", f.Trace, f.Class, f.Resumable, f.Err)
		}
	}
	fast := sequentialSweep(t, srcs, preds[1:], sim.Config{})
	diffSweeps(t, fast, par[1:], preds[1:])
	if got, want := jnl.CellCount(), len(srcs)*len(preds); got != want {
		t.Errorf("journal holds %d cells, want %d (deadline verdicts are final)", got, want)
	}
}

// mixedLanes is a group's worth of predictors of every dispatch kind:
// native kernels, a composed kernel (tournament), a predictor without a
// kernel (yags) and a kernel stripped down to the scalar path.
func mixedLanes(t *testing.T) []sim.PredictorSpec {
	t.Helper()
	var preds []sim.PredictorSpec
	for _, spec := range []string{"gshare:h=8", "yags", "tournament", "bimodal"} {
		if _, err := registry.New(spec); err != nil {
			t.Fatal(err)
		}
		preds = append(preds, sim.PredictorSpec{Name: spec, New: func() bp.Predictor {
			p, _ := registry.New(spec) // checked above
			return p
		}})
	}
	return append(preds, sim.PredictorSpec{Name: "gshare-scalar", New: func() bp.Predictor { return bp.ScalarOnly(gshare.New()) }})
}

// prepConfigs put the end of warm-up and the instruction limit inside
// batches, so that over the 20000-branch cbp5-train traces (about five
// instructions per branch) each reading has edge batches as well as
// prepared ones.
var prepConfigs = []sim.Config{
	{},
	{WarmupInstructions: 5_000},
	{WarmupInstructions: 5_000, SimInstructions: 60_000},
	{SimInstructions: 30_001},
}

// TestGroupSharedPrepMatchesRun: lanes of every dispatch kind share each
// prepared batch, and each lane's results — totals and
// num_branch_instructions counted without per-branch rows — are those of a
// Run of its predictor alone, with warm-up and limits that end inside a
// batch, on one worker (one group per trace) and on two. One trace holds
// 4096 static branches.
func TestGroupSharedPrepMatchesRun(t *testing.T) {
	srcs := append(genSources(t, 20_000)[:3], mlzsSource(manyMissTrace(t)))
	preds := mixedLanes(t)
	for _, cfg := range prepConfigs {
		want := sequentialSweep(t, srcs, preds, cfg)
		if n := want[0].Results[3].Metadata.NumBranchInstructions; n < 3000 {
			t.Fatalf("%+v: the many-branch trace reaches %d static branches, want at least 3000", cfg, n)
		}
		for _, workers := range []int{1, 2} {
			got, err := sim.SweepParallel(srcs, preds, cfg, sim.ParallelOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%+v, %d workers: %v", cfg, workers, err)
			}
			diffSweeps(t, want, got, preds)
		}
	}
}

// scribbler is gshare whose kernel simulates half of its first batch, then
// inverts every prediction of the buffer the lanes share and panics.
type scribbler struct{ *gshare.Predictor }

func (p scribbler) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	half := len(branches) / 2
	p.Predictor.TrainBatch(branches[:half], out[:half])
	for i := range branches {
		out[i] = !out[i]
	}
	panic("scribbler: spoilt the batch")
}

// TestGroupPanickingKernelFailsAlone: a kernel that panics halfway through
// a batch, after spoiling the predictions the lanes share, fails its own
// lane; the lanes after it in the same group still match the oracle.
func TestGroupPanickingKernelFailsAlone(t *testing.T) {
	srcs := genSources(t, 20_000)[:3]
	preds := append([]sim.PredictorSpec{{Name: "scribbler", New: func() bp.Predictor { return scribbler{gshare.New()} }}}, mixedLanes(t)...)
	for _, cfg := range prepConfigs {
		got, err := sim.SweepParallel(srcs, preds, cfg, sim.ParallelOptions{Workers: 1, Policy: sim.Policy{Mode: sim.SkipFailed}})
		if err != nil {
			t.Fatal(err)
		}
		diffSweeps(t, sequentialSweep(t, srcs, preds, cfg), got, preds)
		if n := len(got[0].Failures); n != len(srcs) {
			t.Errorf("%+v: scribbler failed on %d of %d traces", cfg, n, len(srcs))
		}
	}
}

// shortReader hands out at most n events per batch read.
type shortReader struct {
	bp.Reader
	n int
}

func (r shortReader) ReadBatch(dst []bp.Event) (int, error) {
	return bp.ReadBatch(r.Reader, dst[:min(len(dst), r.n)])
}

// TestGroupRestoresMidBatch: checkpoints taken on a reading in batches of
// 1000 records restore on a reading in full batches, so the restored lanes
// — a kernel and a scalar one — start partway into a prepared batch and
// read its shared arrays from an offset, while fresh lanes read them
// whole. The checkpoints are version 2, without per-branch rows, and every
// lane ends byte-identical to an uninterrupted run, totals and
// num_branch_instructions included.
func TestGroupRestoresMidBatch(t *testing.T) {
	spec := suiteSpecs(t, 30_000)[0]
	src := genSource(spec)
	short := sim.TraceSource{Name: src.Name, Open: func() (bp.Reader, io.Closer, error) {
		r, closer, err := src.Open()
		return shortReader{r, 1000}, closer, err
	}}
	var cond, instr uint64
	for _, ev := range generate(t, spec) {
		instr += ev.InstrsSinceLastBranch + 1
		if ev.Branch.IsConditional() {
			cond++
		}
	}
	for _, cfg := range []sim.Config{
		{WarmupInstructions: 5_000},
		{WarmupInstructions: 5_000, SimInstructions: instr * 3 / 4},
	} {
		dir := t.TempDir()
		// Drain a reading of the short batches once the spy has made a third
		// of its predictions: both lanes checkpoint where it stopped.
		jnl := openJournal(t, dir)
		drain := make(chan struct{})
		var once sync.Once
		var n atomic.Uint64
		kernel := sim.PredictorSpec{Name: "gshare-h12", New: func() bp.Predictor { return gshare.New(gshare.WithHistoryLength(12)) }}
		drained := []sim.PredictorSpec{namedSpy("spy", 10, &n, cond/3, func() { once.Do(func() { close(drain) }) }), kernel}
		if _, err := sim.SweepParallel([]sim.TraceSource{short}, drained, cfg, sim.ParallelOptions{
			Workers: 1, Journal: jnl, CheckpointEvery: 1 << 40, Drain: drain,
		}); err != nil {
			t.Fatal(err)
		}
		for _, ps := range drained {
			ck, ok := jnl.Checkpoint(sim.CellKey(src, ps.Name, cfg))
			if !ok || ck.Events%tracecache.BatchEvents == 0 {
				t.Fatalf("%s: checkpoint %v at %d events, want one inside a full batch", ps.Name, ok, ck.Events)
			}
			cr := bp.NewCkptReader(bytes.NewReader(ck.State))
			if v := cr.Header("simcell"); cr.Err() != nil || v != 2 {
				t.Errorf("%s: checkpoint version %d (err %v), want 2: a sweep lane keeps no rows", ps.Name, v, cr.Err())
			}
		}

		var full, resumed atomic.Uint64
		preds := append([]sim.PredictorSpec{namedSpy("spy", 10, &resumed, 0, nil), kernel}, mixedLanes(t)...)
		var built atomic.Int32
		inner := preds[1].New
		preds[1].New = func() bp.Predictor { built.Add(1); return inner() }
		got, err := sim.SweepParallel([]sim.TraceSource{src}, preds, cfg, sim.ParallelOptions{Workers: 1, Journal: jnl, CheckpointEvery: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		oracle := append([]sim.PredictorSpec{namedSpy("spy", 10, &full, 0, nil), kernel}, mixedLanes(t)...)
		diffSweeps(t, sequentialSweep(t, []sim.TraceSource{src}, oracle, cfg), got, preds)
		if r, f := resumed.Load(), full.Load(); r == 0 || r >= f {
			t.Errorf("%+v: the spy made %d predictions on resume vs %d uninterrupted: its prefix was not skipped", cfg, r, f)
		}
		if b := built.Load(); b != 1 {
			t.Errorf("%+v: the kernel lane built %d predictors, want 1 (checkpoint accepted)", cfg, b)
		}
	}
}
