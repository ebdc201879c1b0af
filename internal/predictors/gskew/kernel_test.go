package gskew

import (
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/predtest"
)

// kernelGeometries covers the XorFoldWide kernel (bank sizes of 10 bits
// and up) and the narrow-bank loop, with short and long histories.
var kernelGeometries = map[string][]Option{
	"default":      nil,
	"t=10,h=4/40":  {WithLogSize(10), WithHistoryLengths(4, 40)},
	"t=8,h=9/18":   {WithLogSize(8)},
	"t=3,h=1/63":   {WithLogSize(3), WithHistoryLengths(1, 63)},
	"t=12,h=13/13": {WithLogSize(12), WithHistoryLengths(13, 13)},
}

// TestKernelMatchesScalar: the kernel makes the scalar path's predictions
// and leaves all four banks and the global history exactly as it does.
func TestKernelMatchesScalar(t *testing.T) {
	for name, opts := range kernelGeometries {
		opts := opts
		t.Run(name, func(t *testing.T) {
			k, s := predtest.CheckKernelMatchesScalar(t, func() bp.Predictor { return New(opts...) }, 8000)
			kp, sp := k.(*Predictor), s.(*Predictor)
			if kp.ghist != sp.ghist {
				t.Fatalf("global history: kernel %#x, scalar %#x", kp.ghist, sp.ghist)
			}
			for i := range uint64(kp.bim.Len()) {
				for _, b := range []struct {
					name string
					k, s int
				}{
					{"bim", kp.bim.Get(i), sp.bim.Get(i)},
					{"g0", kp.g0.Get(i), sp.g0.Get(i)},
					{"g1", kp.g1.Get(i), sp.g1.Get(i)},
					{"meta", kp.meta.Get(i), sp.meta.Get(i)},
				} {
					if b.k != b.s {
						t.Fatalf("%s counter %d: kernel %d, scalar %d", b.name, i, b.k, b.s)
					}
				}
			}
		})
	}
}

// TestKernelConformance runs the batch-kernel law and the sim-level
// batch/scalar equivalence on every geometry.
func TestKernelConformance(t *testing.T) {
	for name, opts := range kernelGeometries {
		opts := opts
		newP := func() bp.Predictor { return New(opts...) }
		t.Run(name, func(t *testing.T) {
			predtest.CheckBatchKernelConformance(t, newP, 3000)
			predtest.CheckBatchScalarEquivalence(t, newP, 2000)
		})
	}
}

// TestKernelZeroAlloc pins the batch kernel's zero-allocation steady state.
func TestKernelZeroAlloc(t *testing.T) {
	predtest.CheckKernelZeroAlloc(t, func() bp.Predictor { return New() }, 4096)
}
