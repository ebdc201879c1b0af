package batage

import (
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/predtest"
)

func newBATAGE() bp.Predictor { return New() }

// TestKernelMatchesScalar: the batched pipeline, which drives TrainBatch,
// produces byte-identical results to the scalar Predict/Train/Track loop.
func TestKernelMatchesScalar(t *testing.T) {
	predtest.CheckBatchScalarEquivalence(t, newBATAGE, 6000)
}

// TestKernelConformance runs the batch-kernel laws: PredictBatch and
// TrainBatch agree with the scalar calls under arbitrary batch splits.
func TestKernelConformance(t *testing.T) {
	predtest.CheckBatchKernelConformance(t, newBATAGE, 6000)
}

// TestKernelZeroAlloc pins the kernel's zero-allocation steady state: the
// lookup scratch is preallocated in New.
func TestKernelZeroAlloc(t *testing.T) {
	predtest.CheckKernelZeroAlloc(t, newBATAGE, 4096)
}
