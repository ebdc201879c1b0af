package utils

import (
	"testing"
)

// Checkpointing serializes predictor state through these accessors; each
// pair must restore an instance that behaves identically from then on.

func TestGlobalHistoryWordsRoundTrip(t *testing.T) {
	for _, length := range []int{1, 17, 64, 65, 200} {
		h := NewGlobalHistory(length)
		rng := NewRand(uint64(length))
		for i := 0; i < 3*length; i++ {
			h.Push(rng.Bool(1, 2))
		}
		restored := NewGlobalHistory(length)
		restored.SetWords(h.Words())
		if restored.String() != h.String() {
			t.Fatalf("length %d: restored %s, want %s", length, restored.String(), h.String())
		}
		// Both must evolve identically afterwards.
		h.Push(true)
		restored.Push(true)
		if restored.String() != h.String() {
			t.Fatalf("length %d: divergence after restore", length)
		}
	}
}

func TestGlobalHistorySetWordsMasksTop(t *testing.T) {
	h := NewGlobalHistory(10)
	h.SetWords([]uint64{0xffff})
	for i := 0; i < 10; i++ {
		if !h.Bit(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	// Bits above the length must have been masked off: packing the low 10
	// outcomes must match the canonical value.
	if got := h.Low(10); got != 0x3ff {
		t.Errorf("Low(10) = %#x, want 0x3ff", got)
	}
}

func TestGlobalHistorySetWordsPanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetWords with wrong word count did not panic")
		}
	}()
	NewGlobalHistory(64).SetWords([]uint64{1, 2})
}

func TestFoldBankSetValue(t *testing.T) {
	folds := []Fold{{Length: 40, Width: 7}, {Length: 13, Width: 11}}
	b := NewFoldBank(folds)
	rng := NewRand(99)
	for i := 0; i < 100; i++ {
		b.Push(rng.Bool(1, 2))
	}
	restored := NewFoldBank(folds)
	restored.SetWords(b.Words())
	for i := range folds {
		restored.SetValue(i, b.Value(i))
		if restored.Value(i) != b.Value(i) {
			t.Fatalf("SetValue(%d): %#x, want %#x", i, restored.Value(i), b.Value(i))
		}
	}
	// Both must evolve identically afterwards.
	for i := 0; i < 50; i++ {
		o := rng.Bool(1, 2)
		b.Push(o)
		restored.Push(o)
		for k := range folds {
			if restored.Value(k) != b.Value(k) {
				t.Fatalf("fold %d diverged after restore", k)
			}
		}
	}
	// Out-of-width bits are masked, keeping the invariant Push relies on.
	restored.SetValue(0, 1<<63)
	if restored.Value(0) != 0 {
		t.Errorf("SetValue did not mask to width: %#x", restored.Value(0))
	}
	// Reset clears the folds along with the history they summarise.
	b.Reset()
	for i := range folds {
		if b.Value(i) != 0 {
			t.Errorf("fold %d = %#x after Reset", i, b.Value(i))
		}
	}
	if b.Uint64() != 0 {
		t.Errorf("history = %#x after Reset", b.Uint64())
	}
}

func TestPathHistoryStateRoundTrip(t *testing.T) {
	p := NewPathHistory(9, 5)
	rng := NewRand(7)
	for i := 0; i < 25; i++ {
		p.Push(rng.Uint64())
	}
	buf, head, packed := p.State()
	restored := NewPathHistory(9, 5)
	restored.SetState(buf, head, packed)
	if restored.Packed() != p.Packed() {
		t.Fatalf("Packed: %#x, want %#x", restored.Packed(), p.Packed())
	}
	for i := 0; i < 9; i++ {
		if restored.At(i) != p.At(i) {
			t.Fatalf("At(%d): %d, want %d", i, restored.At(i), p.At(i))
		}
	}
	p.Push(42)
	restored.Push(42)
	if restored.Packed() != p.Packed() || restored.At(0) != p.At(0) {
		t.Fatal("divergence after restore")
	}
}

func TestPathHistorySetStateValidates(t *testing.T) {
	p := NewPathHistory(4, 8)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"short buf", func() { p.SetState([]uint16{1}, 0, 0) }},
		{"head out of range", func() { p.SetState(make([]uint16, 4), 4, 0) }},
		{"negative head", func() { p.SetState(make([]uint16, 4), -1, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestRandStateRoundTrip(t *testing.T) {
	r := NewRand(12345)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	restored := &Rand{}
	restored.SetState(r.State())
	for i := 0; i < 10; i++ {
		if a, b := r.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("draw %d: %d vs %d", i, a, b)
		}
	}
	// The zero state maps to 1 on both sides, matching Seed's convention.
	var z Rand
	if z.State() != 1 {
		t.Errorf("zero-value State = %d, want 1", z.State())
	}
	z.SetState(0)
	if z.State() != 1 {
		t.Errorf("SetState(0) left state %d, want 1", z.State())
	}
}
