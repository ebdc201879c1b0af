package utils

import "fmt"

// CounterTable is a table of signed saturating counters that share one
// width, packed one counter per int8 lane. It is the storage of every
// counter table in the examples library: a two-bit counter costs one byte
// instead of the eight of a SignedCounter (an int32 value plus its own
// width), so a 2^17-entry GShare table is 128 KiB rather than 1 MiB, and
// the width lives once, in the table, where batch kernels read it without
// hoisting anything.
//
// Values follow the SignedCounter conventions: a width-w counter saturates
// at [-2^(w-1), 2^(w-1)-1], counters start at 0, and a non-negative value
// predicts taken. Widths run from 1 to 8, the range an int8 lane holds.
//
// The update methods are branch-free on the outcome: branch outcomes are
// near-random by construction (a predictable branch would not need a
// predictor), so keeping them out of control flow removes the single
// largest stall of a table-predictor loop.
type CounterTable struct {
	lanes  []int8
	lo, hi int // saturation bounds, shared by every lane
}

// MaxCounterWidth is the widest counter a CounterTable lane holds.
const MaxCounterWidth = 8

// NewCounterTable returns a table of n counters of the given width (1 to
// MaxCounterWidth), all at 0.
func NewCounterTable(n, width int) CounterTable {
	if width < 1 || width > MaxCounterWidth {
		panic(fmt.Sprintf("utils: invalid counter table width %d", width))
	}
	return CounterTable{lanes: make([]int8, n), lo: -(1 << (width - 1)), hi: 1<<(width-1) - 1}
}

// Len returns the number of counters.
func (t *CounterTable) Len() int { return len(t.lanes) }

// Get returns counter i.
func (t *CounterTable) Get(i uint64) int { return int(t.lanes[i]) }

// Set stores v into counter i, clamped to the counter range.
func (t *CounterTable) Set(i uint64, v int) { t.lanes[i] = int8(min(max(v, t.lo), t.hi)) }

// Predict reports the outcome counter i encodes: taken iff it is
// non-negative.
func (t *CounterTable) Predict(i uint64) bool { return t.lanes[i] >= 0 }

// Update moves counter i one step toward the outcome, saturating: the
// table form of SignedCounter.SumOrSub.
func (t *CounterTable) Update(i uint64, taken bool) {
	c := &t.lanes[i]
	*c = t.step(*c, step(taken))
}

// UpdateIf is Update when on is true and a no-op otherwise, with on as data
// rather than control: the partial-update policies of hybrid predictors
// (which bank strengthens depends on which banks were right) stay
// branch-free.
func (t *CounterTable) UpdateIf(i uint64, taken, on bool) {
	c := &t.lanes[i]
	*c = t.step(*c, step(taken)&-b2i(on))
}

// PredictUpdate returns Predict(i) as of entry and then applies
// Update(i, taken): one index computation and one lane access for the read
// and the write of a fused predict+train kernel.
func (t *CounterTable) PredictUpdate(i uint64, taken bool) bool {
	c := &t.lanes[i]
	v := *c
	*c = t.step(v, step(taken))
	return v >= 0
}

// step returns v+d clamped to the table's bounds.
func (t *CounterTable) step(v int8, d int) int8 {
	return int8(min(max(int(v)+d, t.lo), t.hi))
}

// step maps an outcome to the counter increment: +1 taken, -1 not taken.
func step(taken bool) int { return 2*b2i(taken) - 1 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
