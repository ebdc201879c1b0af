package utils

import (
	"testing"
	"testing/quick"
)

// TestCounterTableGeometry: a table starts at 0 in every lane and
// saturates at [-2^(w-1), 2^(w-1)-1] for every lane width.
func TestCounterTableGeometry(t *testing.T) {
	for w := 1; w <= MaxCounterWidth; w++ {
		tab := NewCounterTable(16, w)
		if tab.Len() != 16 {
			t.Errorf("width %d: Len %d, want 16", w, tab.Len())
		}
		for i := range uint64(tab.Len()) {
			if tab.Get(i) != 0 || !tab.Predict(i) {
				t.Fatalf("width %d: counter %d starts at %d, want a taken-predicting 0", w, i, tab.Get(i))
			}
		}
		for range 300 {
			tab.Update(0, true)
			tab.Update(1, false)
		}
		if wantMin, wantMax := -(1 << (w - 1)), 1<<(w-1)-1; tab.Get(1) != wantMin || tab.Get(0) != wantMax {
			t.Errorf("width %d: saturated at [%d,%d], want [%d,%d]", w, tab.Get(1), tab.Get(0), wantMin, wantMax)
		}
	}
}

func TestCounterTableInvalidWidth(t *testing.T) {
	for _, w := range []int{0, -1, MaxCounterWidth + 1, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCounterTable(4, %d) did not panic", w)
				}
			}()
			NewCounterTable(4, w)
		}()
	}
}

func TestCounterTableSetClamps(t *testing.T) {
	tab := NewCounterTable(2, 3)
	tab.Set(0, 100)
	tab.Set(1, -100)
	if tab.Get(0) != 3 || tab.Get(1) != -4 {
		t.Errorf("Set(±100) on width 3 gave %d and %d, want 3 and -4", tab.Get(0), tab.Get(1))
	}
}

// Property: at every width, each table update moves a lane exactly as the
// scalar SignedCounter moves under the same outcomes — Update and
// PredictUpdate as SumOrSub (PredictUpdate returning the prediction as of
// entry), UpdateIf as SumOrSub when on and as nothing otherwise — and
// neighbouring lanes never move.
func TestCounterTableMatchesSignedCounter(t *testing.T) {
	f := func(width uint8, steps []uint8) bool {
		w := int(width%MaxCounterWidth) + 1
		tab := NewCounterTable(3, w)
		ref := NewSignedCounter(w, 0)
		for _, s := range steps {
			taken, on := s&1 != 0, s&2 != 0
			switch s >> 2 % 3 {
			case 0:
				tab.Update(1, taken)
				ref.SumOrSub(taken)
			case 1:
				if tab.PredictUpdate(1, taken) != ref.Predict() {
					return false
				}
				ref.SumOrSub(taken)
			case 2:
				tab.UpdateIf(1, taken, on)
				if on {
					ref.SumOrSub(taken)
				}
			}
			if tab.Get(1) != ref.Get() || tab.Predict(1) != ref.Predict() || tab.Get(0) != 0 || tab.Get(2) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
