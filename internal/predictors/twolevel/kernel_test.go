package twolevel

import (
	"fmt"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/predtest"
)

// kernelConfigs is every classical variant at the counter widths that
// bracket a CounterTable lane (1 and 8 bits) and one odd width between.
func kernelConfigs() map[string]Config {
	levels := []Level{Global, PerSet, PerAddress}
	cfgs := map[string]Config{}
	for _, first := range levels {
		for _, second := range levels {
			for _, bits := range []int{1, 3, 8} {
				cfg := Config{First: first, Second: second, HistLen: 8, CounterBits: bits}
				cfgs[fmt.Sprintf("%s/bits=%d", New(cfg).Variant(), bits)] = cfg
			}
		}
	}
	return cfgs
}

// TestKernelMatchesScalar: the one kernel covers all nine variants — the
// same predictions as the scalar path and the same final history
// registers and pattern tables.
func TestKernelMatchesScalar(t *testing.T) {
	for name, cfg := range kernelConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			k, s := predtest.CheckKernelMatchesScalar(t, func() bp.Predictor { return New(cfg) }, 6000)
			kp, sp := k.(*Predictor), s.(*Predictor)
			for i := range kp.bhrs {
				if kp.bhrs[i] != sp.bhrs[i] {
					t.Fatalf("history register %d: kernel %#x, scalar %#x", i, kp.bhrs[i], sp.bhrs[i])
				}
			}
			for i := range uint64(kp.pht.Len()) {
				if kp.pht.Get(i) != sp.pht.Get(i) {
					t.Fatalf("counter %d: kernel %d, scalar %d", i, kp.pht.Get(i), sp.pht.Get(i))
				}
			}
		})
	}
}

// TestKernelConformance runs the batch-kernel law and the sim-level
// batch/scalar equivalence on every variant.
func TestKernelConformance(t *testing.T) {
	for name, cfg := range kernelConfigs() {
		cfg := cfg
		newP := func() bp.Predictor { return New(cfg) }
		t.Run(name, func(t *testing.T) {
			predtest.CheckBatchKernelConformance(t, newP, 3000)
			predtest.CheckBatchScalarEquivalence(t, newP, 2000)
		})
	}
}

// TestKernelZeroAlloc pins the batch kernel's zero-allocation steady state.
func TestKernelZeroAlloc(t *testing.T) {
	for _, v := range []Config{{First: Global, Second: PerSet}, {First: PerAddress, Second: PerAddress}} {
		predtest.CheckKernelZeroAlloc(t, func() bp.Predictor { return New(v) }, 4096)
	}
}
