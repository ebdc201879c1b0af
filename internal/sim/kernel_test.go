package sim_test

// Tests for the batch-kernel dispatch path: sim.Run hands full post-warm-up
// batches to predictors implementing bp.BatchPredictor, and nothing about
// that may be visible in the results — against the scalar reference loop
// (RunScalar), against the batched pipeline with the kernel stripped
// (bp.ScalarOnly), under warm-up and limit edge batches, and under parallel
// sweeps at any worker count.

import (
	"bytes"
	"io"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/batage"
	"mbplib/internal/predictors/bimodal"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/predictors/gskew"
	"mbplib/internal/predictors/perceptron"
	"mbplib/internal/predictors/tage"
	"mbplib/internal/predictors/tournament"
	"mbplib/internal/predictors/twolevel"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

var kernelPredictors = []struct {
	name string
	mk   func() bp.Predictor
}{
	{"bimodal", func() bp.Predictor { return bimodal.New() }},
	{"gshare", func() bp.Predictor { return gshare.New() }},
	{"perceptron", func() bp.Predictor { return perceptron.New() }},
	{"tage", func() bp.Predictor { return tage.New() }},
	{"batage", func() bp.Predictor { return batage.New() }},
	{"twolevel", func() bp.Predictor {
		return twolevel.New(twolevel.Config{First: twolevel.PerAddress, Second: twolevel.PerSet})
	}},
	{"gskew", func() bp.Predictor { return gskew.New() }},
	{"tournament", func() bp.Predictor {
		return tournament.New(gshare.New(gshare.WithHistoryLength(8), gshare.WithLogSize(10)), bimodal.New(), gshare.New())
	}},
}

// TestKernelRunMatchesScalar: for every kernel predictor and a grid of
// warm-up/limit configurations (which force careful edge batches around the
// kernel fast path), the three pipelines — scalar reference, batched with
// the native kernel, batched with the kernel stripped — produce
// byte-identical result JSON.
func TestKernelRunMatchesScalar(t *testing.T) {
	spec := equivSpec(15000)
	configs := map[string]sim.Config{
		"plain":  {TraceName: "kernel-equiv"},
		"warmup": {TraceName: "kernel-equiv", WarmupInstructions: 9000},
		"limit":  {TraceName: "kernel-equiv", SimInstructions: 15000},
		"both":   {TraceName: "kernel-equiv", WarmupInstructions: 4000, SimInstructions: 11000},
	}
	newGen := func() *tracegen.Generator {
		g, err := tracegen.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, kp := range kernelPredictors {
		kp := kp
		t.Run(kp.name, func(t *testing.T) {
			t.Parallel()
			if _, ok := kp.mk().(bp.BatchPredictor); !ok {
				t.Fatalf("%s does not implement bp.BatchPredictor", kp.name)
			}
			for cname, cfg := range configs {
				scalar, err := sim.RunScalar(newGen(), kp.mk(), cfg)
				if err != nil {
					t.Fatalf("%s: RunScalar: %v", cname, err)
				}
				kernel, err := sim.Run(newGen(), kp.mk(), cfg)
				if err != nil {
					t.Fatalf("%s: Run (kernel): %v", cname, err)
				}
				stripped, err := sim.Run(newGen(), bp.ScalarOnly(kp.mk()), cfg)
				if err != nil {
					t.Fatalf("%s: Run (stripped): %v", cname, err)
				}
				want := resultJSON(t, scalar)
				if got := resultJSON(t, kernel); !bytes.Equal(got, want) {
					t.Errorf("%s: kernel result differs from scalar reference\nscalar: %s\nkernel: %s", cname, want, got)
				}
				if got := resultJSON(t, stripped); !bytes.Equal(got, want) {
					t.Errorf("%s: stripped result differs from scalar reference\nscalar:   %s\nstripped: %s", cname, want, got)
				}
			}
		})
	}
}

// TestKernelDispatchCounters: a batched run over a kernel predictor reports
// kernel dispatches and batch-size observations through the obs collector,
// and a stripped predictor reports only scalar dispatches. Results must be
// identical either way — collectors only observe.
func TestKernelDispatchCounters(t *testing.T) {
	spec := equivSpec(15000)
	newGen := func() *tracegen.Generator {
		g, err := tracegen.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	colK := obs.New()
	if _, err := sim.Run(newGen(), gshare.New(), sim.Config{Metrics: colK}); err != nil {
		t.Fatal(err)
	}
	kSnap := colK.Snapshot()
	if kSnap.Counters[obs.CtrDispatchKernel.String()] == 0 {
		t.Errorf("kernel predictor run recorded no %s dispatches", obs.CtrDispatchKernel)
	}
	if kSnap.Histograms[obs.HistBatchEvents.String()].Count == 0 {
		t.Errorf("run recorded no %s observations", obs.HistBatchEvents)
	}

	colS := obs.New()
	if _, err := sim.Run(newGen(), bp.ScalarOnly(gshare.New()), sim.Config{Metrics: colS}); err != nil {
		t.Fatal(err)
	}
	sSnap := colS.Snapshot()
	if n := sSnap.Counters[obs.CtrDispatchKernel.String()]; n != 0 {
		t.Errorf("stripped predictor run recorded %d kernel dispatches, want 0", n)
	}
	if sSnap.Counters[obs.CtrDispatchScalar.String()] == 0 {
		t.Errorf("stripped predictor run recorded no %s dispatches", obs.CtrDispatchScalar)
	}
}

// TestKernelWarmupEdgeUsesScalarPath: with a warm-up boundary inside the
// trace, at least one batch must take the careful scalar path even for a
// kernel predictor — the edge-batch rule — while later full batches take
// the kernel. The dispatch counters make the split observable.
func TestKernelWarmupEdgeUsesScalarPath(t *testing.T) {
	spec := equivSpec(30000)
	g, err := tracegen.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	if _, err := sim.Run(g, gshare.New(), sim.Config{WarmupInstructions: 20000, Metrics: col}); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if n := snap.Counters[obs.CtrDispatchScalar.String()]; n == 0 {
		t.Errorf("warm-up boundary produced no scalar-path batches")
	}
	if n := snap.Counters[obs.CtrDispatchKernel.String()]; n == 0 {
		t.Errorf("post-warm-up stream produced no kernel-path batches")
	}
}

// TestSweepParallelKernelScalarEquivalence: a parallel sweep over kernel
// predictors is byte-identical to the same sweep with every kernel stripped,
// at every worker count, and a journalled kernel sweep replays verbatim.
func TestSweepParallelKernelScalarEquivalence(t *testing.T) {
	specA, specB := equivSpec(12000), equivSpec(8000)
	specB.Name, specB.Seed = "kernel-equiv-b", 31
	srcs := []sim.TraceSource{
		{Name: "a", Open: func() (bp.Reader, io.Closer, error) {
			g, err := tracegen.New(specA)
			return g, nil, err
		}},
		{Name: "b", Open: func() (bp.Reader, io.Closer, error) {
			g, err := tracegen.New(specB)
			return g, nil, err
		}},
	}
	native := []sim.PredictorSpec{
		{Name: "bimodal", New: func() bp.Predictor { return bimodal.New() }},
		{Name: "gshare", New: func() bp.Predictor { return gshare.New() }},
	}
	stripped := []sim.PredictorSpec{
		{Name: "bimodal", New: func() bp.Predictor { return bp.ScalarOnly(bimodal.New()) }},
		{Name: "gshare", New: func() bp.Predictor { return bp.ScalarOnly(gshare.New()) }},
	}
	cfg := sim.Config{WarmupInstructions: 3000}
	for _, workers := range []int{1, 2, 4} {
		ref, err := sim.SweepParallel(srcs, stripped, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: stripped sweep: %v", workers, err)
		}
		got, err := sim.SweepParallel(srcs, native, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: kernel sweep: %v", workers, err)
		}
		diffSweeps(t, ref, got, native)
	}

	// Journalled kernel sweep: first run simulates through the kernels and
	// journals every cell; the rerun replays from the journal without
	// simulating. Both must match the stripped reference byte for byte.
	ref, err := sim.SweepParallel(srcs, stripped, cfg, sim.ParallelOptions{Cache: sim.NewCache(0), Workers: 2})
	if err != nil {
		t.Fatalf("journal reference sweep: %v", err)
	}
	dir := t.TempDir()
	for pass := 0; pass < 2; pass++ {
		jnl := openJournal(t, dir)
		got, err := sim.SweepParallel(srcs, native, cfg, sim.ParallelOptions{
			Cache:   sim.NewCache(0),
			Workers: 2, Journal: jnl, CheckpointEvery: 4096,
		})
		if err != nil {
			t.Fatalf("journalled kernel sweep, pass %d: %v", pass, err)
		}
		diffSweeps(t, ref, got, native)
		if err := jnl.Close(); err != nil {
			t.Fatalf("journal close, pass %d: %v", pass, err)
		}
	}
}
