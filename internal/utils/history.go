package utils

import (
	"fmt"
	"math/bits"
)

// GlobalHistory maintains the outcomes of the most recent branches as a
// bit vector of arbitrary length. Bit 0 is the most recent outcome. It is
// the Go analogue of the std::bitset-based global history of Listing 2,
// extended to lengths beyond 64 bits for TAGE-class predictors.
type GlobalHistory struct {
	length int
	words  []uint64
	top    uint64 // mask of the valid bits of the last word
}

// NewGlobalHistory returns a history register holding length outcomes,
// initially all zero (not taken).
func NewGlobalHistory(length int) *GlobalHistory {
	if length < 1 {
		panic(fmt.Sprintf("utils: invalid history length %d", length))
	}
	top := ^uint64(0)
	if rem := length % 64; rem != 0 {
		top = 1<<rem - 1
	}
	return &GlobalHistory{length: length, words: make([]uint64, (length+63)/64), top: top}
}

// Len returns the history length in bits.
func (h *GlobalHistory) Len() int { return h.length }

// Push shifts the history left by one and records the new outcome in bit 0.
func (h *GlobalHistory) Push(taken bool) {
	carry := b2u(taken)
	for i := range h.words {
		next := h.words[i] >> 63
		h.words[i] = h.words[i]<<1 | carry
		carry = next
	}
	h.words[len(h.words)-1] &= h.top
}

// Bit returns outcome i, where 0 is the most recent branch.
func (h *GlobalHistory) Bit(i int) bool {
	if i < 0 || i >= h.length {
		panic(fmt.Sprintf("utils: history bit %d out of range [0,%d)", i, h.length))
	}
	return h.words[i/64]>>(i%64)&1 == 1
}

// Low returns the n most recent outcomes packed in a uint64 (n ≤ 64), the
// equivalent of bitset::to_ullong for short histories.
func (h *GlobalHistory) Low(n int) uint64 {
	if n < 0 || n > 64 || n > h.length {
		panic(fmt.Sprintf("utils: Low(%d) out of range for history of length %d", n, h.length))
	}
	if n == 0 {
		return 0
	}
	v := h.words[0]
	if n < 64 {
		v &= 1<<n - 1
	}
	return v
}

// Uint64 returns the min(64,Len) most recent outcomes packed in a uint64.
func (h *GlobalHistory) Uint64() uint64 {
	if h.length >= 64 {
		return h.words[0]
	}
	return h.Low(h.length)
}

// Reset clears the history to all zeros.
func (h *GlobalHistory) Reset() {
	for i := range h.words {
		h.words[i] = 0
	}
}

// Words returns a copy of the packed history words (bit 0 of word 0 is the
// most recent outcome), for checkpointing. The slice length is fixed by the
// history length passed to NewGlobalHistory.
func (h *GlobalHistory) Words() []uint64 {
	w := make([]uint64, len(h.words))
	copy(w, h.words)
	return w
}

// SetWords restores a state previously captured by Words. The word count
// must match the history length; callers restoring from external bytes are
// expected to have validated the configuration first.
func (h *GlobalHistory) SetWords(words []uint64) {
	if len(words) != len(h.words) {
		panic(fmt.Sprintf("utils: SetWords with %d words, history needs %d", len(words), len(h.words)))
	}
	copy(h.words, words)
	h.words[len(h.words)-1] &= h.top
}

// String renders the history most-recent-first as a bit string, which is
// convenient in tests and debug output.
func (h *GlobalHistory) String() string {
	buf := make([]byte, h.length)
	for i := 0; i < h.length; i++ {
		if h.Bit(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// FoldBank owns a global history register and incrementally maintains a
// set of XOR-folds of it: fold i is the XOR of the width_i-bit chunks of
// the length_i most recent outcomes (bit 0 the newest). TAGE-class
// predictors keep up to three folds per tagged table for index and tag
// hashing, the hashed perceptron and O-GEHL one per table. Push is O(1) per
// fold and free of data-dependent branches: the state is a struct of
// arrays, and for each fold the width mask, the position the leaving
// outcome is folded into and the history word and bit that hold the
// leaving outcome are all fixed at construction.
//
// The embedded GlobalHistory is the register itself; its length is one more
// than the longest fold, so the outcome leaving a fold's window is still
// held after the push that evicts it. Words/SetWords checkpoint it as for
// any GlobalHistory.
type FoldBank struct {
	GlobalHistory
	value   []uint64 // current folded values
	mask    []uint64 // 1<<width - 1; 0 for a zero-length fold, which stays 0
	outMask []uint64 // 1 << (length % width): where the leaving outcome is folded
	outWord []uint32 // history word holding the leaving outcome after Push
	outBit  []uint64 // its bit within that word
}

// Fold describes one folded view of a FoldBank's history: the most recent
// Length outcomes (0 ≤ Length) XOR-folded into Width bits (1 ≤ Width ≤ 63).
type Fold struct {
	Length, Width int
}

// NewFoldBank returns a bank of the given folds over a zero history. The
// folds are numbered in the order given.
func NewFoldBank(folds []Fold) *FoldBank {
	maxLen := 0
	for _, f := range folds {
		if f.Width < 1 || f.Width > 63 {
			panic(fmt.Sprintf("utils: invalid folded width %d", f.Width))
		}
		if f.Length < 0 {
			panic(fmt.Sprintf("utils: invalid folded length %d", f.Length))
		}
		maxLen = max(maxLen, f.Length)
	}
	n := len(folds)
	b := &FoldBank{
		GlobalHistory: *NewGlobalHistory(maxLen + 1),
		value:         make([]uint64, n),
		mask:          make([]uint64, n),
		outMask:       make([]uint64, n),
		outWord:       make([]uint32, n),
		outBit:        make([]uint64, n),
	}
	for i, f := range folds {
		if f.Length > 0 {
			b.mask[i] = 1<<f.Width - 1
		}
		// The leaving outcome had been folded into position
		// (length-1) % width; the rotation moves it to length % width.
		// After the push it sits at history position `length`, so XORing
		// that history bit into this position cancels it.
		b.outMask[i] = 1 << (f.Length % f.Width)
		b.outWord[i] = uint32(f.Length / 64)
		b.outBit[i] = 1 << (f.Length % 64)
	}
	return b
}

// Push shifts the newest outcome into the history and every fold.
func (b *FoldBank) Push(taken bool) {
	b.GlobalHistory.Push(taken)
	in, words := b2u(taken), b.words
	value := b.value
	mask, outMask := b.mask[:len(value)], b.outMask[:len(value)]
	outWord, outBit := b.outWord[:len(value)], b.outBit[:len(value)]
	for i, v := range value {
		m := mask[i]
		// Rotate left within the width (the top bit, set iff v exceeds the
		// half mask, re-enters at bit 0), shift in the new outcome and fold
		// out the leaving one.
		v = v<<1 ^ b2u(v > m>>1) ^ in ^ outMask[i]&-b2u(words[outWord[i]]&outBit[i] != 0)
		value[i] = v & m
	}
}

// Value returns the current value of fold i.
func (b *FoldBank) Value(i int) uint64 { return b.value[i] }

// Values returns the current fold values, indexed like the folds passed to
// NewFoldBank. The slice is the bank's own storage, valid until the next
// Push; hashing loops read it instead of calling Value per fold.
func (b *FoldBank) Values() []uint64 { return b.value }

// SetValue restores fold i to a value previously read with Value, masked to
// the fold's width, for checkpointing.
func (b *FoldBank) SetValue(i int, v uint64) { b.value[i] = v & b.mask[i] }

// Reset clears the history and every fold.
func (b *FoldBank) Reset() {
	b.GlobalHistory.Reset()
	clear(b.value)
}

// b2u converts an outcome to 0 or 1 without a branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// PathHistory records the low bits of the addresses of recent branches,
// used by path-based predictors (hashed perceptron, TAGE index hashing).
type PathHistory struct {
	bitsPer int
	length  int
	buf     []uint16
	head    int
	packed  uint64
}

// NewPathHistory returns a path history recording `length` addresses at
// `bitsPer` bits each (bitsPer ≤ 16, length*bitsPer arbitrary; the packed
// view exposes the most recent 64 bits).
func NewPathHistory(length, bitsPer int) *PathHistory {
	if length < 1 || bitsPer < 1 || bitsPer > 16 {
		panic(fmt.Sprintf("utils: invalid path history length=%d bitsPer=%d", length, bitsPer))
	}
	return &PathHistory{bitsPer: bitsPer, length: length, buf: make([]uint16, length)}
}

// Push records the address of a new branch.
func (p *PathHistory) Push(ip uint64) {
	v := uint16(ip & (1<<p.bitsPer - 1))
	if p.head++; p.head == p.length {
		p.head = 0
	}
	p.buf[p.head] = v
	p.packed = p.packed<<p.bitsPer | uint64(v)
}

// Packed returns the concatenation of the most recent addresses, newest in
// the low bits, truncated to 64 bits.
func (p *PathHistory) Packed() uint64 { return p.packed }

// At returns the recorded low bits of the i-th most recent branch address
// (0 is the newest).
func (p *PathHistory) At(i int) uint64 {
	if i < 0 || i >= p.length {
		panic(fmt.Sprintf("utils: path history index %d out of range [0,%d)", i, p.length))
	}
	idx := (p.head - i%p.length + p.length) % p.length
	return uint64(p.buf[idx])
}

// Reset clears the path history.
func (p *PathHistory) Reset() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.head, p.packed = 0, 0
}

// State returns a copy of the ring buffer plus the head index and packed
// view, for checkpointing.
func (p *PathHistory) State() (buf []uint16, head int, packed uint64) {
	buf = make([]uint16, len(p.buf))
	copy(buf, p.buf)
	return buf, p.head, p.packed
}

// SetState restores a state previously captured by State. The buffer length
// must match the configured history length and head must index into it.
func (p *PathHistory) SetState(buf []uint16, head int, packed uint64) {
	if len(buf) != len(p.buf) {
		panic(fmt.Sprintf("utils: SetState with %d entries, path history needs %d", len(buf), len(p.buf)))
	}
	if head < 0 || head >= p.length {
		panic(fmt.Sprintf("utils: SetState head %d out of range [0,%d)", head, p.length))
	}
	copy(p.buf, buf)
	p.head, p.packed = head, packed
}

// XorFold folds a 64-bit value down to `width` bits by XOR-ing `width`-bit
// chunks together, the hash used in Listing 2 to combine the branch address
// with the history register. XorFold is linear over XOR:
// XorFold(a^b, w) == XorFold(a, w) ^ XorFold(b, w), which lets TAGE-class
// hashes fold the address and history parts separately.
//
// From 10 bits up, seven width-sized chunks cover any 64-bit value, and the
// fold is the fixed-count XOR tree of XorFoldWide instead of a loop whose
// exit depends on the data.
func XorFold(x uint64, width int) uint64 {
	if uint(width-1) > 62 {
		badFoldWidth(width)
	}
	if width >= 10 {
		return XorFoldWide(x, width)
	}
	var folded uint64
	for x != 0 {
		folded ^= x & (1<<width - 1)
		x >>= width
	}
	return folded
}

// badFoldWidth is XorFold's out-of-line panic, kept separate so XorFold
// stays small.
//
//go:noinline
func badFoldWidth(width int) {
	panic(fmt.Sprintf("utils: invalid XorFold width %d", width))
}

// XorFoldWide is XorFold restricted to widths of at least 10 bits, where
// seven width-sized chunks cover any 64-bit value: the chunk loop becomes a
// branch-free unrolled XOR chain. Masking once at the end equals masking
// every chunk (AND distributes over XOR), and surplus chunks shift out to
// zero. Batch kernels whose table
// width is known to be at least 10 call it directly and skip XorFold's
// width dispatch.
func XorFoldWide(x uint64, width int) uint64 {
	// Shifting by w repeatedly equals shifting by multiples of w, and with
	// w below 64 no single shift needs Go's past-the-width handling.
	w := uint(width) & 63
	c1 := x >> w
	c2 := c1 >> w
	c3 := c2 >> w
	c4 := c3 >> w
	c5 := c4 >> w
	c6 := c5 >> w
	return (x ^ c1 ^ c2 ^ c3 ^ c4 ^ c5 ^ c6) & (1<<w - 1)
}

// Mix is a cheap 64-bit integer finaliser (xorshift-multiply, as in
// splitmix64) used to decorrelate table indices derived from addresses.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Log2 returns floor(log2(x)) for x > 0.
func Log2(x uint64) int {
	if x == 0 {
		panic("utils: Log2(0)")
	}
	return 63 - bits.LeadingZeros64(x)
}
