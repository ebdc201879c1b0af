package predtest_test

import (
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/predtest"
	"mbplib/internal/predictors/registry"
)

// TestRegistryConformance runs the full conformance suite against every
// predictor the registry can construct, at its default configuration. A new
// predictor added to the registry is covered automatically — and must pass
// before it can ship.
func TestRegistryConformance(t *testing.T) {
	names := registry.Names()
	if len(names) < 16 {
		t.Fatalf("registry lists only %d predictors, expected at least 16", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			newP := func() bp.Predictor {
				p, err := registry.New(name)
				if err != nil {
					t.Fatalf("registry.New(%q): %v", name, err)
				}
				return p
			}
			t.Run("metadata", func(t *testing.T) {
				predtest.CheckMetadata(t, newP())
			})
			t.Run("replay-determinism", func(t *testing.T) {
				predtest.CheckReplayDeterminism(t, newP, 4000)
			})
			t.Run("predict-is-pure", func(t *testing.T) {
				predtest.CheckPredictIsPure(t, newP(), []uint64{0x40_0000, 0x40_0040, 0x41_0000})
			})
			t.Run("predict-side-effect-free", func(t *testing.T) {
				predtest.CheckPredictSideEffectFree(t, newP, 4000)
			})
			t.Run("call-order-tolerance", func(t *testing.T) {
				predtest.CheckCallOrderTolerance(t, newP, 4000)
			})
			t.Run("batch-vs-scalar", func(t *testing.T) {
				predtest.CheckBatchScalarEquivalence(t, newP, 3000)
			})
			t.Run("checkpoint-round-trip", func(t *testing.T) {
				predtest.CheckCheckpointRoundTrip(t, newP, 4000)
			})
			t.Run("batch-kernel", func(t *testing.T) {
				predtest.CheckBatchKernelConformance(t, newP, 4000)
			})
			t.Run("checkpoint-batch-resume", func(t *testing.T) {
				predtest.CheckCheckpointBatchResume(t, newP, 4000)
			})
		})
	}
}

// TestBatchKernelPredictors pins the set of registry predictors that ship a
// native bp.BatchPredictor kernel: the simulator silently falls back to the
// scalar loop when the interface is lost, so a refactor that drops
// PredictBatch/TrainBatch would cost the batched speedup without failing
// any behavioural test.
func TestBatchKernelPredictors(t *testing.T) {
	for _, name := range []string{"bimodal", "twolevel", "gshare", "tournament", "gskew", "perceptron", "tage", "batage"} {
		p, err := registry.New(name)
		if err != nil {
			t.Fatalf("registry.New(%q): %v", name, err)
		}
		if _, ok := p.(bp.BatchPredictor); !ok {
			t.Errorf("%s no longer implements bp.BatchPredictor", name)
		}
	}
}

// TestCheckpointablePredictors pins the set of registry predictors that
// promise bp.Checkpointer: the resumable-sweep machinery checkpoints
// in-flight cells only for these, and silently losing the capability (a
// refactor that drops a method) would degrade resume to event zero.
func TestCheckpointablePredictors(t *testing.T) {
	for _, name := range []string{"bimodal", "gshare", "perceptron", "tage"} {
		p, err := registry.New(name)
		if err != nil {
			t.Fatalf("registry.New(%q): %v", name, err)
		}
		if _, ok := p.(bp.Checkpointer); !ok {
			t.Errorf("%s no longer implements bp.Checkpointer", name)
		}
	}
}
