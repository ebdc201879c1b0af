package sim

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/sbbt"
)

// panicPredictor blows up after a fixed number of predictions.
type panicPredictor struct {
	fuse int
}

func (p *panicPredictor) Predict(uint64) bool {
	if p.fuse--; p.fuse < 0 {
		panic("deliberate test panic")
	}
	return true
}

func (p *panicPredictor) Train(bp.Branch) {}
func (p *panicPredictor) Track(bp.Branch) {}

// corruptSource opens an SBBT trace whose packet bytes have been damaged.
func corruptSource(t *testing.T, name string) TraceSource {
	t.Helper()
	evs := make([]bp.Event, 64)
	for i := range evs {
		evs[i] = bp.Event{Branch: bp.Branch{IP: 0x400000 + uint64(i)*4, Target: 0x500000, Opcode: bp.OpCondJump, Taken: true}}
	}
	var buf bytes.Buffer
	w, err := sbbt.NewWriter(&buf, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[sbbt.HeaderSize] ^= 0x10 // set reserved bit 4 in packet 0
	return TraceSource{Name: name, Open: func() (bp.Reader, io.Closer, error) {
		r, err := sbbt.NewReader(bytes.NewReader(data))
		return r, nil, err
	}}
}

// sentinelIP marks the branch that sets off a tripwirePredictor.
const sentinelIP = 0xdead0000

// tripwirePredictor panics when asked to predict the sentinel branch, so a
// panic is tied to the one trace that contains it, whatever order the
// cells run in.
type tripwirePredictor struct{ staticPredictor }

func (p *tripwirePredictor) Predict(ip uint64) bool {
	if ip == sentinelIP {
		panic("deliberate test panic")
	}
	return p.staticPredictor.Predict(ip)
}

// sentinelSource is a healthy trace whose tenth branch is the sentinel.
func sentinelSource(name string) TraceSource {
	evs := make([]bp.Event, 64)
	for i := range evs {
		evs[i] = condEvent(0x400000+uint64(i)*4, i%3 == 0, 2)
	}
	evs[9].Branch.IP = sentinelIP
	return TraceSource{Name: name, Open: func() (bp.Reader, io.Closer, error) {
		return &sliceReader{evs: evs}, nil, nil
	}}
}

// TestSweepParallelPolicySkipFailed is the graceful-degradation acceptance
// scenario: a set with one corrupt trace and one trace that panics its
// predictor still yields results for every healthy trace plus two
// classified failures, at every scheduler shape.
func TestSweepParallelPolicySkipFailed(t *testing.T) {
	srcs := suiteSources(t, 2000)
	if len(srcs) < 5 {
		t.Fatalf("suite too small: %d traces", len(srcs))
	}
	corruptAt, panicAt := 1, 3
	srcs[corruptAt] = corruptSource(t, "corrupt-trace")
	srcs[panicAt] = sentinelSource("panic-trace")
	newPred := func() bp.Predictor { return &tripwirePredictor{staticPredictor{taken: true}} }
	forEachShape(t, func(t *testing.T, opts ParallelOptions) {
		opts.Policy = Policy{Mode: SkipFailed}
		set, err := runSet(srcs, newPred, Config{}, opts)
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if len(set.Failures) != 2 {
			t.Fatalf("failures = %+v, want 2", set.Failures)
		}

		corrupt := set.Failures[0]
		if corrupt.Trace != "corrupt-trace" || corrupt.Class != "corrupt" {
			t.Errorf("failure 0 = %+v, want corrupt-trace/corrupt", corrupt)
		}
		if !errors.Is(corrupt.Err, faults.ErrCorrupt) {
			t.Errorf("failure 0 Err = %v, want ErrCorrupt", corrupt.Err)
		}

		panicked := set.Failures[1]
		if panicked.Trace != "panic-trace" || panicked.Class != "panic" {
			t.Errorf("failure 1 = %+v, want panic-trace/panic", panicked)
		}
		if !errors.Is(panicked.Err, faults.ErrPredictorPanic) {
			t.Errorf("failure 1 Err = %v, want ErrPredictorPanic", panicked.Err)
		}
		if !strings.Contains(panicked.Stack, "tripwirePredictor") {
			t.Errorf("stack does not name the panicking predictor:\n%s", panicked.Stack)
		}

		if set.Results[corruptAt] != nil || set.Results[panicAt] != nil {
			t.Errorf("failed traces have results")
		}
		healthy := 0
		for _, r := range set.Results {
			if r != nil {
				healthy++
			}
		}
		if healthy != len(srcs)-2 {
			t.Errorf("healthy results = %d, want %d", healthy, len(srcs)-2)
		}
	})
}

// TestSweepParallelFailFastOnPanic: under FailFast a predictor panic surfaces as a
// returned error, not a crash, preserving the one-error contract.
func TestSweepParallelFailFastOnPanic(t *testing.T) {
	srcs := suiteSources(t, 1000)
	forEachShape(t, func(t *testing.T, opts ParallelOptions) {
		_, err := runSet(srcs, func() bp.Predictor { return &panicPredictor{} }, Config{}, opts)
		if err == nil {
			t.Fatal("panic did not surface as an error")
		}
		if !errors.Is(err, faults.ErrPredictorPanic) {
			t.Errorf("err = %v, want ErrPredictorPanic", err)
		}
	})
}

// TestSweepParallelRetriesTransientOpen: a source that fails twice with an
// unclassified error and then succeeds is retried to success on a seeded
// backoff schedule, while a classified (permanent) failure is not retried
// at all.
func TestSweepParallelRetriesTransientOpen(t *testing.T) {
	newPred := func() bp.Predictor { return &staticPredictor{} }
	policy := Policy{Mode: SkipFailed, Retries: 3, Backoff: time.Microsecond, Seed: 7}
	forEachShape(t, func(t *testing.T, opts ParallelOptions) {
		opts.Policy = policy
		srcs := suiteSources(t, 1000)
		var opens atomic.Int32
		flaky := srcs[0].Open
		srcs[0].Open = func() (bp.Reader, io.Closer, error) {
			if opens.Add(1) <= 2 {
				return nil, nil, errors.New("transient: too many open files")
			}
			return flaky()
		}
		set, err := runSet(srcs, newPred, Config{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Failures) != 0 {
			t.Fatalf("failures = %+v", set.Failures)
		}
		if got := opens.Load(); got != 3 {
			t.Errorf("open attempts = %d, want 3", got)
		}

		// Permanent failure: retries are not spent on a corrupt trace.
		var corruptOpens atomic.Int32
		src := corruptSource(t, "corrupt")
		inner := src.Open
		src.Open = func() (bp.Reader, io.Closer, error) {
			corruptOpens.Add(1)
			return inner()
		}
		set, err = runSet([]TraceSource{src}, newPred, Config{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Failures) != 1 || set.Failures[0].Attempts != 1 {
			t.Fatalf("failures = %+v, want one single-attempt failure", set.Failures)
		}
		if got := corruptOpens.Load(); got != 1 {
			t.Errorf("corrupt trace opened %d times, want 1", got)
		}

		// Retries exhausted: the failure reports the attempt count.
		alwaysDown := TraceSource{Name: "down", Open: func() (bp.Reader, io.Closer, error) {
			return nil, nil, errors.New("transient outage")
		}}
		opts.Policy = Policy{Mode: SkipFailed, Retries: 2}
		set, err = runSet([]TraceSource{alwaysDown}, newPred, Config{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Failures) != 1 || set.Failures[0].Attempts != 3 {
			t.Fatalf("failures = %+v, want one three-attempt failure", set.Failures)
		}
		if set.Failures[0].Class != "other" {
			t.Errorf("class = %q, want other", set.Failures[0].Class)
		}
	})
}
