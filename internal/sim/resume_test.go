package sim_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
)

func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("journal.Open(%s): %v", dir, err)
	}
	return j
}

// ckptSpy wraps gshare with a prediction counter and an optional trigger
// that fires once after a given number of predictions — the deterministic
// way to close a drain channel mid-cell. Checkpoint, Restore and Metadata
// promote from the embedded predictor, so the spy is a bp.Checkpointer and
// its results are indistinguishable from plain gshare. The embedding would
// also promote gshare's PredictBatch/TrainBatch kernel, whose dispatch
// bypasses the overridden Predict and starves the counter — exactly the
// wrapper hazard bp.ScalarOnly strips, so spySpec wraps with it.
type ckptSpy struct {
	*gshare.Predictor
	n       *atomic.Uint64
	after   uint64
	trigger func()
}

func (s *ckptSpy) Predict(ip uint64) bool {
	if n := s.n.Add(1); s.trigger != nil && n == s.after {
		s.trigger()
	}
	return s.Predictor.Predict(ip)
}

func spySpec(n *atomic.Uint64, after uint64, trigger func()) sim.PredictorSpec {
	return sim.PredictorSpec{Name: "gshare-spy", New: func() bp.Predictor {
		return bp.ScalarOnly(&ckptSpy{Predictor: gshare.New(), n: n, after: after, trigger: trigger})
	}}
}

// TestSweepParallelJournalReplay: a journalled sweep re-run against the same
// journal replays every cell — no predictor is ever constructed — and the
// replayed sets marshal byte-identically to the live ones, wall-clock times
// included.
func TestSweepParallelJournalReplay(t *testing.T) {
	srcs := genSources(t, 4000)
	cfg := sim.Config{WarmupInstructions: 10_000}
	dir := t.TempDir()

	jnl := openJournal(t, dir)
	first, err := sim.SweepParallel(srcs, equivPredictors, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 4, Journal: jnl})
	if err != nil {
		t.Fatalf("journalled sweep: %v", err)
	}
	if got, want := jnl.CellCount(), len(srcs)*len(equivPredictors); got != want {
		t.Fatalf("journal holds %d cells, want %d", got, want)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	var constructed atomic.Uint64
	counting := make([]sim.PredictorSpec, len(equivPredictors))
	for i, ps := range equivPredictors {
		inner := ps.New
		counting[i] = sim.PredictorSpec{Name: ps.Name, New: func() bp.Predictor {
			constructed.Add(1)
			return inner()
		}}
	}
	jnl2 := openJournal(t, dir)
	defer jnl2.Close()
	second, err := sim.SweepParallel(srcs, counting, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 4, Journal: jnl2})
	if err != nil {
		t.Fatalf("replay sweep: %v", err)
	}
	if n := constructed.Load(); n != 0 {
		t.Errorf("replay constructed %d predictors, want 0 (every cell on record)", n)
	}
	fj, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fj, sj) {
		t.Errorf("replayed sweep is not byte-identical to the live one\nlive:   %s\nreplay: %s", fj, sj)
	}
}

// TestSweepParallelCheckpointDrainResume is the end-to-end resumable-cell
// law: drain a sweep mid-cell, verify the in-flight cell checkpointed and
// everything unfinished surfaced as resumable drained failures, then resume
// against the same journal and require (a) results identical to an
// uninterrupted baseline and (b) strictly fewer predictions than a from-zero
// run — proof the checkpointed prefix was skipped, not re-simulated.
func TestSweepParallelCheckpointDrainResume(t *testing.T) {
	specs := suiteSpecs(t, 30_000)[:2]
	srcs := []sim.TraceSource{genSource(specs[0]), genSource(specs[1])}
	evs := generate(t, specs[0])
	cond := 0
	for _, ev := range evs {
		if ev.Branch.IsConditional() {
			cond++
		}
	}
	// The drain trigger must fire beyond the first checkpoint interval and
	// well before the trace ends, with room for multiple batches.
	if len(evs) <= 3*4096 || cond <= 6000 {
		t.Fatalf("trace %s too small to drain mid-flight: %d events, %d conditional", specs[0].Name, len(evs), cond)
	}
	cfg := sim.Config{WarmupInstructions: 5000}

	var baseN atomic.Uint64
	base := []sim.PredictorSpec{spySpec(&baseN, 0, nil)}
	baseline, err := sim.SweepParallel(srcs, base, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 1})
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	dir := t.TempDir()
	jnl := openJournal(t, dir)
	drain := make(chan struct{})
	var once sync.Once
	var cutN atomic.Uint64
	cut := []sim.PredictorSpec{spySpec(&cutN, 6000, func() { once.Do(func() { close(drain) }) })}
	cutSets, err := sim.SweepParallel(srcs, cut, cfg, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 1, Journal: jnl, CheckpointEvery: 4096, Drain: drain,
	})
	if err != nil {
		t.Fatalf("drained sweep: %v (drained failures must not error the sweep)", err)
	}
	fails := cutSets[0].Failures
	if len(fails) != len(srcs) {
		t.Fatalf("drained sweep: %d failures, want %d (every unfinished cell): %+v", len(fails), len(srcs), fails)
	}
	for _, f := range fails {
		if f.Class != "drained" || !f.Resumable || !errors.Is(f.Err, faults.ErrDrained) {
			t.Errorf("drained cell %s: class=%q resumable=%v err=%v, want a resumable drained failure", f.Trace, f.Class, f.Resumable, f.Err)
		}
	}
	if n := jnl.CellCount(); n != 0 {
		t.Errorf("journal holds %d final cells after a full drain, want 0 (drained cells must re-run)", n)
	}
	key := sim.CellKey(srcs[0], "gshare-spy", cfg)
	ck, ok := jnl.Checkpoint(key)
	if !ok || ck.Events < 4096 {
		t.Fatalf("no usable checkpoint for the in-flight cell: ok=%v events=%d", ok, ck.Events)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	jnl2 := openJournal(t, dir)
	var resumeN atomic.Uint64
	resume := []sim.PredictorSpec{spySpec(&resumeN, 0, nil)}
	resumed, err := sim.SweepParallel(srcs, resume, cfg, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 1, Journal: jnl2, CheckpointEvery: 4096,
	})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	// Marshal before diffSweeps: resultJSON zeroes wall-clock times in
	// place, and the replay comparison below wants the live values.
	rj, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	diffSweeps(t, baseline, resumed, base)
	if len(resumed[0].Failures) != 0 {
		t.Errorf("resumed sweep still has failures: %+v", resumed[0].Failures)
	}
	if resumeN.Load() == 0 || resumeN.Load() >= baseN.Load() {
		t.Errorf("resume made %d predictions vs %d uninterrupted — the checkpointed prefix was not skipped", resumeN.Load(), baseN.Load())
	}
	if got, want := jnl2.CellCount(), len(srcs); got != want {
		t.Errorf("journal holds %d final cells after resume, want %d", got, want)
	}
	if err := jnl2.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	// Third run: everything is on record, so nothing simulates and the
	// replay marshals byte-identically to the resumed run.
	jnl3 := openJournal(t, dir)
	defer jnl3.Close()
	var replayN atomic.Uint64
	replaySpecs := []sim.PredictorSpec{spySpec(&replayN, 0, nil)}
	replayed, err := sim.SweepParallel(srcs, replaySpecs, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 1, Journal: jnl3})
	if err != nil {
		t.Fatalf("replay sweep: %v", err)
	}
	if n := replayN.Load(); n != 0 {
		t.Errorf("replay made %d predictions, want 0", n)
	}
	pj, err := json.Marshal(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rj, pj) {
		t.Errorf("replay is not byte-identical to the resumed run\nresumed: %s\nreplay:  %s", rj, pj)
	}
}

// TestSweepParallelCellTimeout: an expired per-cell deadline classifies as a
// permanent deadline fault, is journalled as final, and replays as the same
// verdict without re-running the cell.
func TestSweepParallelCellTimeout(t *testing.T) {
	srcs := genSources(t, 30_000)[:1]
	dir := t.TempDir()
	jnl := openJournal(t, dir)
	preds := []sim.PredictorSpec{{Name: "taken", New: func() bp.Predictor { return takenPredictor{} }}}
	sets, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 1, Policy: sim.Policy{Mode: sim.SkipFailed}, Journal: jnl, CellTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(sets[0].Failures) != 1 {
		t.Fatalf("failures: %+v, want exactly one", sets[0].Failures)
	}
	f := sets[0].Failures[0]
	if f.Class != "deadline" || f.Resumable || !errors.Is(f.Err, faults.ErrDeadline) {
		t.Fatalf("cell timeout: class=%q resumable=%v err=%v, want a final deadline failure", f.Class, f.Resumable, f.Err)
	}
	if n := jnl.CellCount(); n != 1 {
		t.Fatalf("journal holds %d cells, want 1 (deadline verdicts are final)", n)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	// Resume without a timeout: the journalled verdict replays; the cell
	// must not run again just because the budget was lifted.
	jnl2 := openJournal(t, dir)
	defer jnl2.Close()
	var constructed atomic.Uint64
	counting := []sim.PredictorSpec{{Name: "taken", New: func() bp.Predictor {
		constructed.Add(1)
		return takenPredictor{}
	}}}
	sets2, err := sim.SweepParallel(srcs, counting, sim.Config{}, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 1, Policy: sim.Policy{Mode: sim.SkipFailed}, Journal: jnl2,
	})
	if err != nil {
		t.Fatalf("replay sweep: %v", err)
	}
	if n := constructed.Load(); n != 0 {
		t.Errorf("replay constructed %d predictors, want 0", n)
	}
	f2 := sets2[0].Failures[0]
	if f2.Class != "deadline" || !errors.Is(f2.Err, faults.ErrDeadline) {
		t.Errorf("replayed failure: class=%q err=%v, want the deadline verdict back", f2.Class, f2.Err)
	}
}

// TestSweepParallelCellTimeoutDuringOpenRetry: a cell whose open keeps
// failing transiently stops retrying when its deadline expires — backoff
// sleeps included — and fails as a deadline fault, with the cache on and
// off and without a journal.
func TestSweepParallelCellTimeoutDuringOpenRetry(t *testing.T) {
	down := sim.TraceSource{Name: "down", Open: func() (bp.Reader, io.Closer, error) {
		return nil, nil, errors.New("transient outage")
	}}
	preds := []sim.PredictorSpec{{Name: "taken", New: func() bp.Predictor { return takenPredictor{} }}}
	for _, cacheBytes := range []int64{-1, 0} {
		start := time.Now()
		sets, err := sim.SweepParallel([]sim.TraceSource{down}, preds, sim.Config{}, sim.ParallelOptions{
			Workers: 1, Cache: sim.NewCache(cacheBytes), CellTimeout: 50 * time.Millisecond,
			Policy: sim.Policy{Mode: sim.SkipFailed, Retries: 50, Backoff: 100 * time.Millisecond, Seed: 1},
		})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("cache %d: sweep: %v", cacheBytes, err)
		}
		if len(sets[0].Failures) != 1 {
			t.Fatalf("cache %d: failures %+v, want exactly one", cacheBytes, sets[0].Failures)
		}
		if f := sets[0].Failures[0]; f.Class != "deadline" || !errors.Is(f.Err, faults.ErrDeadline) {
			t.Errorf("cache %d: failure class=%q err=%v, want a deadline fault", cacheBytes, f.Class, f.Err)
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("cache %d: sweep took %v; the 50ms cell deadline did not stop the open retries", cacheBytes, elapsed)
		}
	}
}

// TestSweepParallelDrainDuringOpenRetry: a drain stops a cell's transient
// open retries, backoff sleeps included, and leaves the cell resumable.
func TestSweepParallelDrainDuringOpenRetry(t *testing.T) {
	down := sim.TraceSource{Name: "down", Open: func() (bp.Reader, io.Closer, error) {
		return nil, nil, errors.New("transient outage")
	}}
	preds := []sim.PredictorSpec{{Name: "taken", New: func() bp.Predictor { return takenPredictor{} }}}
	for _, cacheBytes := range []int64{-1, 0} {
		drain := make(chan struct{})
		timer := time.AfterFunc(50*time.Millisecond, func() { close(drain) })
		start := time.Now()
		sets, err := sim.SweepParallel([]sim.TraceSource{down}, preds, sim.Config{}, sim.ParallelOptions{
			Workers: 1, Cache: sim.NewCache(cacheBytes), Drain: drain,
			Policy: sim.Policy{Mode: sim.SkipFailed, Retries: 50, Backoff: 100 * time.Millisecond, Seed: 1},
		})
		elapsed := time.Since(start)
		timer.Stop()
		if err != nil {
			t.Fatalf("cache %d: sweep: %v", cacheBytes, err)
		}
		if len(sets[0].Failures) != 1 {
			t.Fatalf("cache %d: failures %+v, want exactly one", cacheBytes, sets[0].Failures)
		}
		if f := sets[0].Failures[0]; f.Class != "drained" || !f.Resumable {
			t.Errorf("cache %d: failure class=%q resumable=%v, want a resumable drain", cacheBytes, f.Class, f.Resumable)
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("cache %d: sweep took %v; the drain did not stop the open retries", cacheBytes, elapsed)
		}
	}
}

// TestSweepParallelOneWorkerDrain: on one worker, a drain closed before
// the sweep starts leaves every cell a resumable "not started" failure
// without opening a trace, and a drain that never closes leaves the output
// byte-identical to a plain run — with the cache on and off.
func TestSweepParallelOneWorkerDrain(t *testing.T) {
	var opens atomic.Int32
	srcs := genSources(t, 2000)
	for i := range srcs {
		open := srcs[i].Open
		srcs[i].Open = func() (bp.Reader, io.Closer, error) {
			opens.Add(1)
			return open()
		}
	}
	preds := []sim.PredictorSpec{{Name: "taken", New: func() bp.Predictor { return takenPredictor{} }}}
	for _, cacheBytes := range []int64{0, -1} {
		opts := sim.ParallelOptions{Workers: 1, Cache: sim.NewCache(cacheBytes), Policy: sim.Policy{Mode: sim.SkipFailed}}
		plain, err := sim.SweepParallel(srcs, preds, sim.Config{}, opts)
		if err != nil {
			t.Fatalf("cache %d: plain run: %v", cacheBytes, err)
		}

		closed := make(chan struct{})
		close(closed)
		opts.Drain = closed
		opens.Store(0)
		sets, err := sim.SweepParallel(srcs, preds, sim.Config{}, opts)
		if err != nil {
			t.Fatalf("cache %d: drained run: %v", cacheBytes, err)
		}
		set := sets[0]
		if len(set.Failures) != len(srcs) {
			t.Fatalf("cache %d: drained run: %d failures, want %d", cacheBytes, len(set.Failures), len(srcs))
		}
		for _, f := range set.Failures {
			if f.Class != "drained" || !f.Resumable || !strings.HasPrefix(f.Message, "not started: ") {
				t.Errorf("cache %d: drained cell %s: class=%q resumable=%v message=%q, want a resumable not-started drain",
					cacheBytes, f.Trace, f.Class, f.Resumable, f.Message)
			}
		}
		for i, r := range set.Results {
			if r != nil {
				t.Errorf("cache %d: drained run simulated %s", cacheBytes, srcs[i].Name)
			}
		}
		if n := opens.Load(); n != 0 {
			t.Errorf("cache %d: drained run opened %d traces, want 0", cacheBytes, n)
		}

		opts.Drain = make(chan struct{})
		same, err := sim.SweepParallel(srcs, preds, sim.Config{}, opts)
		if err != nil {
			t.Fatalf("cache %d: open-drain run: %v", cacheBytes, err)
		}
		if !bytes.Equal(setJSON(t, plain[0]), setJSON(t, same[0])) {
			t.Errorf("cache %d: an open drain changed the results", cacheBytes)
		}
	}
}

// TestCellKey pins the journal identity: digest preferred over name, and
// every window parameter participates.
func TestCellKey(t *testing.T) {
	src := sim.TraceSource{Name: "t0"}
	cfg := sim.Config{WarmupInstructions: 5, SimInstructions: 9}
	if got, want := sim.CellKey(src, "gshare:h=12", cfg), "t0|gshare:h=12|w=5|s=9"; got != want {
		t.Errorf("CellKey = %q, want %q", got, want)
	}
	src.Digest = "abc123"
	if got, want := sim.CellKey(src, "gshare:h=12", cfg), "abc123|gshare:h=12|w=5|s=9"; got != want {
		t.Errorf("CellKey with digest = %q, want %q", got, want)
	}
	other := sim.CellKey(src, "gshare:h=12", sim.Config{WarmupInstructions: 5})
	if other == sim.CellKey(src, "gshare:h=12", cfg) {
		t.Error("CellKey ignores the simulation window")
	}
}

// TestSweepParallelJournalCellBytes: a journalled cell records its metrics
// and no most_failed report, so a cell's record stays under 2 KiB on a
// trace whose full report lists more than a thousand branches.
func TestSweepParallelJournalCellBytes(t *testing.T) {
	srcs := []sim.TraceSource{mlzsSource(manyMissTrace(t))}
	jnl := openJournal(t, t.TempDir())
	defer jnl.Close()
	col := obs.New()
	if _, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
		Cache: sim.NewCache(0), Workers: 2, Journal: jnl, Metrics: col,
	}); err != nil {
		t.Fatal(err)
	}
	c := col.Snapshot().Counters
	cells := uint64(len(srcs) * len(equivPredictors))
	if c["journal_records"] != cells {
		t.Fatalf("%d journal records, want one per cell (%d)", c["journal_records"], cells)
	}
	if per := c["journal_bytes"] / cells; per >= 2<<10 {
		t.Errorf("%d journalled bytes per cell, want under 2 KiB", per)
	}
}

// TestSweepParallelJournalReplayLegacyRecord: a journal written when cells
// still recorded sim.Run's whole result, most_failed included, replays
// without simulating to the SetResults of a live sweep.
func TestSweepParallelJournalReplayLegacyRecord(t *testing.T) {
	srcs := append(genSources(t, 4000)[:2], mlzsSource(manyMissTrace(t)))
	cfg := sim.Config{WarmupInstructions: 10_000}
	live, err := sim.SweepParallel(srcs, equivPredictors, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jnl := openJournal(t, dir)
	for _, ps := range equivPredictors {
		for _, src := range srcs {
			full, err := oracleCell(src, ps.New(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.MostFailed) == 0 {
				t.Fatalf("%s over %s: sim.Run reports no most_failed rows", ps.Name, src.Name)
			}
			data, err := json.Marshal(full)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := jnl.AppendCell(journal.CellRecord{Key: sim.CellKey(src, ps.Name, cfg), Result: data}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	var constructed atomic.Uint64
	counting := make([]sim.PredictorSpec, len(equivPredictors))
	for i, ps := range equivPredictors {
		inner := ps.New
		counting[i] = sim.PredictorSpec{Name: ps.Name, New: func() bp.Predictor {
			constructed.Add(1)
			return inner()
		}}
	}
	jnl = openJournal(t, dir)
	defer jnl.Close()
	replayed, err := sim.SweepParallel(srcs, counting, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 2, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	if n := constructed.Load(); n != 0 {
		t.Errorf("replay constructed %d predictors, want 0 (every cell on record)", n)
	}
	diffSweeps(t, live, replayed, equivPredictors)
}
