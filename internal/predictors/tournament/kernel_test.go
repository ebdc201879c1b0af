package tournament

import (
	"bytes"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/bimodal"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/predictors/perceptron"
	"mbplib/internal/predictors/predtest"
)

// kernelCompositions are the tournaments the kernel tests run: the
// registry default, a meta-predictor with history of its own, a base
// without a kernel beside a perceptron, a tournament nested as a
// component, and components shared between roles, which must take the
// scalar loop.
var kernelCompositions = map[string]func() bp.Predictor{
	"default": func() bp.Predictor {
		return New(bimodal.New(bimodal.WithLogSize(13)), bimodal.New(), gshare.New())
	},
	"meta=gshare:h=8,t=10": func() bp.Predictor {
		return New(gshare.New(gshare.WithHistoryLength(8), gshare.WithLogSize(10)), bimodal.New(), gshare.New())
	},
	"kernel-less-component": func() bp.Predictor {
		return New(bimodal.New(bimodal.WithLogSize(10)), bp.ScalarOnly(gshare.New(gshare.WithLogSize(12))), perceptron.New(perceptron.WithLogSize(9)))
	},
	"nested": func() bp.Predictor {
		inner := New(gshare.New(gshare.WithHistoryLength(6), gshare.WithLogSize(9)), bimodal.New(bimodal.WithLogSize(9)), gshare.New(gshare.WithLogSize(11)))
		return New(bimodal.New(bimodal.WithLogSize(10)), inner, gshare.New(gshare.WithHistoryLength(20), gshare.WithLogSize(12)))
	},
	"aliased-bases": func() bp.Predictor {
		g := gshare.New(gshare.WithLogSize(12))
		return New(bimodal.New(bimodal.WithLogSize(10)), g, g)
	},
	"aliased-meta": func() bp.Predictor {
		g := gshare.New(gshare.WithHistoryLength(10), gshare.WithLogSize(12))
		return New(g, bimodal.New(bimodal.WithLogSize(10)), g)
	},
}

// state renders a tournament's final state: the checkpoints of its
// components, recursing into nested tournaments.
func state(t *testing.T, p bp.Predictor) []byte {
	t.Helper()
	if tp, ok := p.(*Predictor); ok {
		return bytes.Join([][]byte{state(t, tp.meta), state(t, tp.bp0), state(t, tp.bp1)}, []byte("|"))
	}
	cp, ok := p.(bp.Checkpointer)
	if !ok {
		t.Fatalf("component %T has no checkpoint format", p)
	}
	var b bytes.Buffer
	if err := cp.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestKernelMatchesScalar: every composition predicts as the scalar
// Listing 4 path does and leaves every component in the same state.
func TestKernelMatchesScalar(t *testing.T) {
	for name, newP := range kernelCompositions {
		newP := newP
		t.Run(name, func(t *testing.T) {
			k, s := predtest.CheckKernelMatchesScalar(t, newP, 8000)
			if !bytes.Equal(state(t, k), state(t, s)) {
				t.Errorf("component state differs between the kernel and scalar paths")
			}
		})
	}
}

// TestKernelAliasFallback: only compositions that share an instance take
// the scalar loop.
func TestKernelAliasFallback(t *testing.T) {
	for name, newP := range kernelCompositions {
		want := name == "aliased-bases" || name == "aliased-meta"
		if got := newP().(*Predictor).aliased; got != want {
			t.Errorf("%s: aliased = %v, want %v", name, got, want)
		}
	}
}

// TestKernelMetaSchedule: the kernel hands the meta-predictor the same
// synthetic training branches and the same tracked branches, in the same
// order, as the scalar path.
func TestKernelMetaSchedule(t *testing.T) {
	var metas [2]*recorder
	i := 0
	newP := func() bp.Predictor {
		metas[i] = &recorder{inner: bimodal.New(bimodal.WithLogSize(10))}
		i++
		return New(metas[i-1], bimodal.New(), gshare.New(gshare.WithLogSize(12)))
	}
	predtest.CheckKernelMatchesScalar(t, newP, 6000)
	kernel, scalar := metas[0], metas[1]
	if len(kernel.trains) == 0 || len(kernel.trains) != len(scalar.trains) || len(kernel.tracks) != len(scalar.tracks) {
		t.Fatalf("meta trained %d and tracked %d times under the kernel, %d and %d under the scalar path",
			len(kernel.trains), len(kernel.tracks), len(scalar.trains), len(scalar.tracks))
	}
	for j := range kernel.trains {
		if kernel.trains[j] != scalar.trains[j] {
			t.Fatalf("meta training branch %d: kernel %+v, scalar %+v", j, kernel.trains[j], scalar.trains[j])
		}
	}
	for j := range kernel.tracks {
		if kernel.tracks[j] != scalar.tracks[j] {
			t.Fatalf("meta tracked branch %d: kernel %+v, scalar %+v", j, kernel.tracks[j], scalar.tracks[j])
		}
	}
}

// TestKernelConformance runs the batch-kernel law and the sim-level
// batch/scalar equivalence on every composition, and on a meta-predictor
// whose Predict memoizes (the perceptron's sum cache): the kernel consults
// the meta only where the bases disagree, so the memo may end elsewhere
// than on the scalar path, but no prediction may change.
func TestKernelConformance(t *testing.T) {
	compositions := map[string]func() bp.Predictor{
		"meta=perceptron": func() bp.Predictor {
			return New(perceptron.New(perceptron.WithLogSize(9)), bimodal.New(bimodal.WithLogSize(10)), gshare.New(gshare.WithLogSize(12)))
		},
	}
	for name, newP := range kernelCompositions {
		compositions[name] = newP
	}
	for name, newP := range compositions {
		newP := newP
		t.Run(name, func(t *testing.T) {
			predtest.CheckBatchKernelConformance(t, newP, 3000)
			predtest.CheckBatchScalarEquivalence(t, newP, 2000)
		})
	}
}

// TestKernelZeroAlloc pins the kernel's zero-allocation steady state: the
// bp1 scratch is sized by the warm-up batch and reused.
func TestKernelZeroAlloc(t *testing.T) {
	predtest.CheckKernelZeroAlloc(t, kernelCompositions["default"], 4096)
	predtest.CheckKernelZeroAlloc(t, kernelCompositions["nested"], 4096)
}

// valuePredictor is a predictor whose dynamic type is not comparable.
type valuePredictor struct{ table []bool }

func (v valuePredictor) Predict(uint64) bool { return len(v.table) > 0 }
func (v valuePredictor) Train(bp.Branch)     {}
func (v valuePredictor) Track(bp.Branch)     {}

// TestAliasCheckUncomparable: the alias check must not panic on
// components of uncomparable dynamic type, which cannot be one instance.
func TestAliasCheckUncomparable(t *testing.T) {
	p := New(valuePredictor{}, valuePredictor{}, bimodal.New())
	if p.aliased {
		t.Errorf("distinct uncomparable components reported as aliased")
	}
}
