package sim

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/predictors/yags"
)

// markIP is a branch address only the marked trace of a comparison set
// holds (genBranchStream's addresses start at 0x400000).
const markIP = 0x40

// markedPredictor panics on markIP and otherwise is the predictor it wraps.
type markedPredictor struct{ bp.Predictor }

func (p markedPredictor) Predict(ip uint64) bool {
	if ip == markIP {
		panic("marked branch")
	}
	return p.Predictor.Predict(ip)
}

// compareSetTraces generates the traces of a comparison set; trace marked
// (when in range) holds one conditional branch at markIP half-way through.
func compareSetTraces(n, marked int) ([][]bp.Event, []TraceSource) {
	traces := make([][]bp.Event, n)
	sources := make([]TraceSource, n)
	for i := range traces {
		evs := genBranchStream(rand.New(rand.NewPCG(uint64(i), 7)), 6000)
		if i == marked {
			evs = append(evs[:3000:3000], append([]bp.Event{condEvent(markIP, true, 1)}, evs[3000:]...)...)
		}
		traces[i] = evs
		sources[i] = TraceSource{Name: fmt.Sprintf("t%d", i), Open: func() (bp.Reader, io.Closer, error) {
			return &sliceReader{evs: evs}, nil, nil
		}}
	}
	return traces, sources
}

// TestCompareSetMatchesCompare: every comparison of a set, at any worker
// count, is byte for byte the Compare of its trace, with warm-up and limit
// boundaries inside batches too.
func TestCompareSetMatchesCompare(t *testing.T) {
	traces, sources := compareSetTraces(5, -1)
	newP0 := func() bp.Predictor { return gshare.New() }
	newP1 := func() bp.Predictor { return yags.New() }
	for _, cfg := range []Config{{}, {WarmupInstructions: 9000, SimInstructions: 20000, MostFailedLimit: 5}} {
		for _, workers := range []int{1, 2, 4} {
			results, failures, err := CompareSet(sources, newP0, newP1, cfg, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, evs := range traces {
				if failures[i] != nil {
					t.Fatalf("workers %d trace %d: %v", workers, i, failures[i].Err)
				}
				c := cfg
				c.TraceName = sources[i].Name
				want, err := Compare(&sliceReader{evs: evs}, newP0(), newP1(), c)
				if err != nil {
					t.Fatal(err)
				}
				if w, g := compareJSON(t, want), compareJSON(t, results[i]); !bytes.Equal(w, g) {
					t.Errorf("workers %d trace %d: CompareSet differs from Compare\nCompare:    %.300s\nCompareSet: %.300s", workers, i, w, g)
				}
			}
		}
	}
}

// TestCompareSetPanic: a predictor that panics on one trace fails that
// comparison alone, with class "panic" and the captured stack, and every
// other comparison still reports, at any worker count.
func TestCompareSetPanic(t *testing.T) {
	traces, sources := compareSetTraces(3, 1)
	newP0 := func() bp.Predictor { return gshare.New() }
	newP1 := func() bp.Predictor { return markedPredictor{yags.New()} }
	for _, workers := range []int{1, 3} {
		results, failures, err := CompareSet(sources, newP0, newP1, Config{}, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := failures[1]
		if f == nil || results[1] != nil {
			t.Fatalf("workers %d: the marked trace did not fail (result %v)", workers, results[1])
		}
		if f.Class != "panic" || f.Trace != "t1" || f.Stack == "" || f.Resumable {
			t.Errorf("workers %d: failure = class %q trace %q resumable %v, stack %d bytes; want a panic of t1 with its stack",
				workers, f.Class, f.Trace, f.Resumable, len(f.Stack))
		}
		for _, i := range []int{0, 2} {
			if failures[i] != nil {
				t.Fatalf("workers %d trace %d: %v", workers, i, failures[i].Err)
			}
			want, err := Compare(&sliceReader{evs: traces[i]}, newP0(), newP1(), Config{TraceName: sources[i].Name})
			if err != nil {
				t.Fatal(err)
			}
			if w, g := compareJSON(t, want), compareJSON(t, results[i]); !bytes.Equal(w, g) {
				t.Errorf("workers %d trace %d: differs from Compare beside a panicking comparison", workers, i)
			}
		}
	}
}

// TestCompareSetClosedDrain: with the drain closed before the set starts,
// no trace is opened, every trace is reported as a resumable "not started"
// failure, and no goroutine outlives the call — even with workers ready to
// take a comparison, which a two-way select would hand one about half the
// time.
func TestCompareSetClosedDrain(t *testing.T) {
	_, sources := compareSetTraces(4, -1)
	for i := range sources {
		sources[i].Open = func() (bp.Reader, io.Closer, error) {
			t.Error("a drained set opened a trace")
			return nil, nil, io.EOF
		}
	}
	drain := make(chan struct{})
	close(drain)
	newP := func() bp.Predictor { return gshare.New() }
	before := runtime.NumGoroutine()
	for trial := 0; trial < 50; trial++ {
		col := obs.New()
		results, failures, err := CompareSet(sources, newP, newP, Config{Metrics: col}, 4, drain)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range failures {
			if results[i] != nil || f == nil || !f.Resumable || f.Class != "drained" || f.Message != "not started: "+faults.ErrDrained.Error() {
				t.Fatalf("trial %d trace %d: result %v, failure %+v; want a resumable not-started failure", trial, i, results[i], f)
			}
		}
		if got := col.Ctr(obs.CtrCellsDrained).Load(); got != uint64(len(sources)) {
			t.Fatalf("trial %d: cells_drained = %d, want %d", trial, got, len(sources))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the drained sets, %d after", before, after)
	}
}
