package utils

import (
	"testing"
	"testing/quick"
)

func TestGlobalHistoryPushBit(t *testing.T) {
	h := NewGlobalHistory(8)
	h.Push(true)
	h.Push(false)
	h.Push(true)
	// Most recent first: 1, 0, 1, 0...
	want := []bool{true, false, true, false, false, false, false, false}
	for i, w := range want {
		if h.Bit(i) != w {
			t.Errorf("Bit(%d) = %v, want %v (history %s)", i, h.Bit(i), w, h)
		}
	}
	if h.Uint64() != 0b101 {
		t.Errorf("Uint64() = %#b, want 0b101", h.Uint64())
	}
}

func TestGlobalHistoryLong(t *testing.T) {
	h := NewGlobalHistory(200)
	// Push 200 alternating outcomes; the first pushed ends up at index 199.
	for i := 0; i < 200; i++ {
		h.Push(i%2 == 0)
	}
	// The last pushed (i=199, odd, false) is at index 0.
	for i := 0; i < 200; i++ {
		want := (199-i)%2 == 0
		if h.Bit(i) != want {
			t.Fatalf("Bit(%d) = %v, want %v", i, h.Bit(i), want)
		}
	}
	// One more push shifts everything.
	h.Push(true)
	if !h.Bit(0) {
		t.Errorf("Bit(0) after push(true) = false")
	}
	if h.Bit(1) {
		t.Errorf("Bit(1) should be the previous Bit(0) = false")
	}
}

func TestGlobalHistoryLowAndReset(t *testing.T) {
	h := NewGlobalHistory(64)
	for i := 0; i < 64; i++ {
		h.Push(true)
	}
	if h.Low(5) != 0b11111 {
		t.Errorf("Low(5) = %#b, want 0b11111", h.Low(5))
	}
	if h.Uint64() != ^uint64(0) {
		t.Errorf("Uint64() = %#x, want all ones", h.Uint64())
	}
	h.Reset()
	if h.Uint64() != 0 {
		t.Errorf("after Reset, Uint64() = %#x", h.Uint64())
	}
}

func TestGlobalHistoryTopMasked(t *testing.T) {
	h := NewGlobalHistory(3)
	for i := 0; i < 10; i++ {
		h.Push(true)
	}
	if h.Uint64() != 0b111 {
		t.Errorf("history of length 3 packed = %#b, want 0b111", h.Uint64())
	}
}

// refFold is the reference fold: the XOR of the `bits`-bit chunks of the
// n most recent outcomes of h, read one bit at a time.
func refFold(h *GlobalHistory, n, bits int) uint64 {
	var folded uint64
	for i := 0; i < n; i += bits {
		var chunk uint64
		for j := 0; j < bits && i+j < n; j++ {
			if h.Bit(i + j) {
				chunk |= 1 << j
			}
		}
		folded ^= chunk
	}
	return folded
}

// Property: every fold of a FoldBank tracks the reference fold of its
// history exactly, for arbitrary outcome sequences and a bank mixing
// arbitrary lengths and widths (zero-length folds included). The sequences
// are longer than the longest fold, so outcomes leave every window.
func TestFoldBankMatchesReference(t *testing.T) {
	f := func(lengthSeeds, widthSeeds [4]uint8, seed uint64, extra uint8) bool {
		folds := make([]Fold, len(lengthSeeds))
		for i := range folds {
			folds[i] = Fold{Length: int(lengthSeeds[i] % 200), Width: int(widthSeeds[i]%63) + 1}
		}
		b := NewFoldBank(folds)
		rng := NewRand(seed)
		for n := 0; n < 200+int(extra); n++ {
			b.Push(rng.Bool(1, 2))
			for i, fd := range folds {
				if b.Value(i) != refFold(&b.GlobalHistory, fd.Length, fd.Width) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFoldBankZeroLength(t *testing.T) {
	b := NewFoldBank([]Fold{{Length: 0, Width: 8}})
	b.Push(true)
	if b.Value(0) != 0 {
		t.Errorf("zero-length fold value = %d, want 0", b.Value(0))
	}
	if b.Len() != 1 {
		t.Errorf("history of a zero-length bank holds %d outcomes, want 1", b.Len())
	}
}

func TestFoldBankInvalidFoldPanics(t *testing.T) {
	for _, f := range []Fold{{Length: 4, Width: 0}, {Length: 4, Width: 64}, {Length: -1, Width: 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFoldBank accepted %+v", f)
				}
			}()
			NewFoldBank([]Fold{f})
		}()
	}
}

func TestPathHistory(t *testing.T) {
	p := NewPathHistory(4, 8)
	p.Push(0x1234)
	p.Push(0xabcd)
	if p.At(0) != 0xcd {
		t.Errorf("At(0) = %#x, want 0xcd", p.At(0))
	}
	if p.At(1) != 0x34 {
		t.Errorf("At(1) = %#x, want 0x34", p.At(1))
	}
	if p.Packed()&0xffff != 0x34cd {
		t.Errorf("Packed() low 16 = %#x, want 0x34cd", p.Packed()&0xffff)
	}
	p.Reset()
	if p.Packed() != 0 || p.At(0) != 0 {
		t.Errorf("Reset did not clear path history")
	}
}

func TestPathHistoryWraps(t *testing.T) {
	p := NewPathHistory(2, 4)
	p.Push(1)
	p.Push(2)
	p.Push(3)
	if p.At(0) != 3 || p.At(1) != 2 {
		t.Errorf("after wrap, At = (%d,%d), want (3,2)", p.At(0), p.At(1))
	}
}

func TestXorFold(t *testing.T) {
	if got := XorFold(0, 10); got != 0 {
		t.Errorf("XorFold(0,10) = %d", got)
	}
	// 0xff ^ 0xff folded at 8 bits = 0.
	if got := XorFold(0xffff, 8); got != 0 {
		t.Errorf("XorFold(0xffff,8) = %#x, want 0", got)
	}
	if got := XorFold(0xff00, 8); got != 0xff {
		t.Errorf("XorFold(0xff00,8) = %#x, want 0xff", got)
	}
}

// refXorFold is the chunk-loop definition of XorFold.
func refXorFold(x uint64, width int) uint64 {
	var folded uint64
	for x != 0 {
		folded ^= x & (1<<width - 1)
		x >>= width
	}
	return folded
}

// Property: for every width, XorFold equals the chunk-loop reference (the
// fixed-count form it takes from 10 bits up included), always fits the
// width, and is linear over XOR — the identity TAGE-class hashes rely on to
// fold address and history parts separately.
func TestXorFoldMatchesReference(t *testing.T) {
	rng := NewRand(2023)
	for width := 1; width <= 63; width++ {
		for i := 0; i < 2000; i++ {
			// Mix full-range values with short ones so narrow inputs (few
			// chunks) are covered as well as 64-bit ones.
			x, y := rng.Uint64(), rng.Uint64()>>rng.Intn(64)
			got := XorFold(x, width)
			if want := refXorFold(x, width); got != want {
				t.Fatalf("XorFold(%#x, %d) = %#x, want %#x", x, width, got, want)
			}
			if got >= 1<<width {
				t.Fatalf("XorFold(%#x, %d) = %#x exceeds the width", x, width, got)
			}
			if XorFold(x^y, width) != got^XorFold(y, width) {
				t.Fatalf("XorFold not linear at width %d for %#x, %#x", width, x, y)
			}
		}
	}
}

// Property: folding a value already within the width is the identity.
func TestXorFoldProperties(t *testing.T) {
	f := func(x uint64, widthSeed uint8) bool {
		width := int(widthSeed%63) + 1
		small := x & (1<<width - 1)
		return XorFold(small, width) == small
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXorFoldInvalidWidthPanics(t *testing.T) {
	for _, w := range []int{0, -1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("XorFold accepted width %d", w)
				}
			}()
			XorFold(1, w)
		}()
	}
}

func TestMixIsDeterministicAndSpreads(t *testing.T) {
	if Mix(42) != Mix(42) {
		t.Errorf("Mix not deterministic")
	}
	if Mix(1) == Mix(2) {
		t.Errorf("Mix(1) == Mix(2): suspicious collision")
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 1 << 52: 52}
	for x, want := range cases {
		if got := Log2(x); got != want {
			t.Errorf("Log2(%d) = %d, want %d", x, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Log2(0) did not panic")
		}
	}()
	Log2(0)
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRand(8)
	if NewRand(7).Uint64() == c.Uint64() {
		t.Errorf("different seeds produced identical first value")
	}
}

func TestRandZeroValueAndZeroSeed(t *testing.T) {
	var r Rand
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Errorf("zero-value Rand stuck at 0")
	}
	s := NewRand(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Errorf("zero-seeded Rand stuck at 0")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 10 {
		t.Errorf("Intn(10) visited only %d values in 1000 draws", len(seen))
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(1, 4) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("Bool(1,4) frequency = %.3f, want about 0.25", frac)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}
