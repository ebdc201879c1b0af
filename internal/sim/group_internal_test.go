package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sim/tracecache"
	"mbplib/internal/tracegen"
)

// suiteEvents is the first cbp5-train trace of n branches.
func suiteEvents(tb testing.TB, n uint64) []bp.Event {
	tb.Helper()
	specs, err := tracegen.Suite("cbp5-train", n)
	if err != nil {
		tb.Fatal(err)
	}
	return specEvents(tb, specs[0])
}

// manyIPEvents is a trace of n branches over 4096 static branches, so a
// loop that counted per-branch rows would grow them to 4096.
func manyIPEvents(tb testing.TB, n uint64) []bp.Event {
	tb.Helper()
	return specEvents(tb, tracegen.Spec{
		Name: "many-ip", Seed: 0x5EED, Branches: n,
		Kernels: []tracegen.KernelSpec{{Kind: tracegen.Biased, Branches: 4096, Bias: 0.5, GapMean: 9}},
	})
}

// TestGroupOneLaneNoAllocsPerBatch: in steady state a group of one lane,
// which is what Run is, allocates nothing per batch, on the kernel path and
// on the scalar one: a run over 64 batches allocates no more than a run
// over 4. The least of several measurements is compared, because under
// -race a sync.Pool drops some of what it is given. A metrics-only lane
// keeps no per-branch counters, on a trace of a few hundred branches and
// on one of 4096.
func TestGroupOneLaneNoAllocsPerBatch(t *testing.T) {
	for _, trace := range []struct {
		name string
		evs  []bp.Event
	}{
		{"cbp5", suiteEvents(t, 64_000)},
		{"many-ip", manyIPEvents(t, 64_000)},
	} {
		evs := trace.evs
		if len(evs) < 64_000 {
			t.Fatalf("%s: trace has %d events, want 64000", trace.name, len(evs))
		}
		for _, tc := range []struct {
			name string
			newP func() bp.Predictor
		}{
			{"kernel", smallGshare},
			{"scalar", func() bp.Predictor { return bp.ScalarOnly(smallGshare()) }},
		} {
			cfg := Config{metricsOnly: true, WarmupInstructions: 1000}
			open := sliceOpener(t, evs)
			ln := &lane{newP: tc.newP}
			g := &group{ctx: context.Background(), open: open, cfg: cfg, lanes: []*lane{ln},
				end: func(ended []*lane, _ bool) {
					if l := ended[0].loop; l.counters != nil || l.hw < 100 {
						t.Errorf("%s/%s: lane ended with counters %v over %d branches, want none", trace.name, tc.name, l.counters != nil, l.hw)
					}
				}}
			g.run()
			if ln.err != nil {
				t.Fatal(ln.err)
			}
			allocs := func(batches int) float64 {
				open := sliceOpener(t, evs[:batches*1000])
				least := math.Inf(1)
				for range 5 {
					least = min(least, testing.AllocsPerRun(10, func() {
						if _, err := runCell(context.Background(), nil, open, tc.newP, cfg, nil); err != nil {
							t.Fatal(err)
						}
					}))
				}
				return least
			}
			if few, many := allocs(4), allocs(64); many > few+2 {
				t.Errorf("%s/%s: %v allocations over 64 batches against %v over 4: the group allocates per batch", trace.name, tc.name, many, few)
			}
		}
	}
}

// BenchmarkGroupLanes runs a group of 1, 4 and 12 gshare lanes over a trace
// held in memory, already interned, so nothing but the group's own work is
// timed: the batch preparation it shares, and each lane's simulation and
// accounting. ns/lane-branch is the time per branch of each lane.
func BenchmarkGroupLanes(b *testing.B) {
	evs := suiteEvents(b, 200_000)
	open := batchOpener(b, evs, tracecache.BatchEvents)
	for _, n := range []int{1, 4, 12} {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) {
			for range b.N {
				lanes := make([]*lane, n)
				for i := range lanes {
					h := 2 + 2*i
					lanes[i] = &lane{newP: func() bp.Predictor { return gshare.New(gshare.WithHistoryLength(h), gshare.WithLogSize(14)) }}
				}
				g := &group{ctx: context.Background(), open: open, cfg: Config{metricsOnly: true}, lanes: lanes,
					end: func([]*lane, bool) {}}
				g.run()
				for _, ln := range lanes {
					if ln.err != nil {
						b.Fatal(ln.err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*len(evs)), "ns/lane-branch")
		})
	}
}
