// Package utils is the utilities library of the suite (§V of the MBPlib
// paper): software implementations of the components that appear inside
// most branch predictors — fixed-width saturating counters, branch history
// registers, folded histories, index hashing and a deterministic PRNG.
//
// The components are deliberately small and allocation-free so predictors
// can be written by gluing them together, as in the 20-line GShare of
// Listing 2.
package utils

import "fmt"

// SignedCounter is a lone fixed-width signed saturating counter, the Go
// analogue of MBPlib's i2/i3/... counter classes, for the single counters
// of a predictor (thresholds, policy counters); tables of counters use
// CounterTable, which packs them a byte each under one shared width. A
// counter of width w saturates at [-2^(w-1), 2^(w-1)-1]. The zero value is
// a centred counter of width 2 (the ubiquitous two-bit counter).
//
// The prediction convention throughout the library is that non-negative
// values predict taken, matching `table[i] >= 0` in Listing 2.
type SignedCounter struct {
	v     int32
	width uint8 // 0 means the default width of 2
}

// NewSignedCounter returns a counter of the given bit width (1 to 31)
// initialised to v (clamped to the representable range).
func NewSignedCounter(width int, v int) SignedCounter {
	if width < 1 || width > 31 {
		panic(fmt.Sprintf("utils: invalid counter width %d", width))
	}
	c := SignedCounter{width: uint8(width)}
	c.Set(v)
	return c
}

func (c *SignedCounter) bits() int {
	if c.width == 0 {
		return 2
	}
	return int(c.width)
}

// Min returns the saturation floor, -2^(w-1).
func (c *SignedCounter) Min() int { return -(1 << (c.bits() - 1)) }

// Max returns the saturation ceiling, 2^(w-1)-1.
func (c *SignedCounter) Max() int { return 1<<(c.bits()-1) - 1 }

// Get returns the current value.
func (c *SignedCounter) Get() int { return int(c.v) }

// Set stores v clamped to the counter range.
func (c *SignedCounter) Set(v int) {
	if v < c.Min() {
		v = c.Min()
	}
	if v > c.Max() {
		v = c.Max()
	}
	c.v = int32(v)
}

// Add increments the counter by d, saturating.
func (c *SignedCounter) Add(d int) { c.Set(int(c.v) + d) }

// SumOrSub increments the counter when taken is true and decrements it
// otherwise, saturating at the width bounds. It mirrors i2::sumOrSub.
func (c *SignedCounter) SumOrSub(taken bool) {
	if taken {
		if max := int32(1)<<(c.bits()-1) - 1; c.v < max {
			c.v++
		}
	} else {
		if min := -(int32(1) << (c.bits() - 1)); c.v > min {
			c.v--
		}
	}
}

// Predict reports the outcome encoded by the counter: taken iff the value
// is non-negative.
func (c *SignedCounter) Predict() bool { return c.v >= 0 }

// IsSaturated reports whether the counter sits at either extreme.
func (c *SignedCounter) IsSaturated() bool {
	return int(c.v) == c.Min() || int(c.v) == c.Max()
}

// IsWeak reports whether the counter holds one of its two central values
// (-1 or 0), i.e. the prediction would flip after a single mistraining.
func (c *SignedCounter) IsWeak() bool { return c.v == 0 || c.v == -1 }

// UnsignedCounter is a fixed-width unsigned saturating counter in
// [0, 2^w-1]. It backs structures such as TAGE useful counters. The zero
// value is a width-2 counter at 0.
type UnsignedCounter struct {
	v     uint32
	width uint8 // 0 means the default width of 2
}

// NewUnsignedCounter returns a counter of the given bit width (1 to 32)
// initialised to v (clamped).
func NewUnsignedCounter(width int, v uint) UnsignedCounter {
	if width < 1 || width > 32 {
		panic(fmt.Sprintf("utils: invalid counter width %d", width))
	}
	c := UnsignedCounter{width: uint8(width)}
	c.Set(v)
	return c
}

func (c *UnsignedCounter) bits() int {
	if c.width == 0 {
		return 2
	}
	return int(c.width)
}

// Max returns the saturation ceiling, 2^w-1.
func (c *UnsignedCounter) Max() uint { return 1<<c.bits() - 1 }

// Get returns the current value.
func (c *UnsignedCounter) Get() uint { return uint(c.v) }

// Set stores v clamped to [0, Max].
func (c *UnsignedCounter) Set(v uint) {
	if v > c.Max() {
		v = c.Max()
	}
	c.v = uint32(v)
}

// Inc increments the counter, saturating at Max.
func (c *UnsignedCounter) Inc() {
	if uint(c.v) < c.Max() {
		c.v++
	}
}

// Dec decrements the counter, saturating at 0.
func (c *UnsignedCounter) Dec() {
	if c.v > 0 {
		c.v--
	}
}

// IsMax reports whether the counter is saturated high.
func (c *UnsignedCounter) IsMax() bool { return uint(c.v) == c.Max() }

// IsZero reports whether the counter is at 0.
func (c *UnsignedCounter) IsZero() bool { return c.v == 0 }

// DualCounter is the Bayesian dual counter used by BATAGE: it counts taken
// and not-taken occurrences separately, each saturating at max. When one
// side would overflow, both are halved, implementing the exponential decay
// the predictor relies on.
type DualCounter struct {
	NumTaken    uint8
	NumNotTaken uint8
	max         uint8 // 0 means the default max of 7 (3-bit counts)
}

// NewDualCounter returns a dual counter whose sides saturate at max
// (1 ≤ max ≤ 255).
func NewDualCounter(max int) DualCounter {
	if max < 1 || max > 255 {
		panic(fmt.Sprintf("utils: invalid dual counter max %d", max))
	}
	return DualCounter{max: uint8(max)}
}

func (d *DualCounter) limit() uint8 {
	if d.max == 0 {
		return 7
	}
	return d.max
}

// Update records one outcome. If the corresponding side is saturated, both
// sides are halved first so recent behaviour dominates.
func (d *DualCounter) Update(taken bool) {
	if taken {
		if d.NumTaken == d.limit() {
			d.NumTaken /= 2
			d.NumNotTaken /= 2
		}
		d.NumTaken++
	} else {
		if d.NumNotTaken == d.limit() {
			d.NumTaken /= 2
			d.NumNotTaken /= 2
		}
		d.NumNotTaken++
	}
}

// Decay moves the counter one step toward the uniform (fully uncertain)
// state by decrementing the larger side, as BATAGE's controlled decay does.
func (d *DualCounter) Decay() {
	if d.NumTaken > d.NumNotTaken {
		d.NumTaken--
	} else if d.NumNotTaken > d.NumTaken {
		d.NumNotTaken--
	}
}

// Predict returns the majority outcome; ties predict taken.
func (d *DualCounter) Predict() bool { return d.NumTaken >= d.NumNotTaken }

// Confidence classifies the estimated misprediction probability of the
// counter into high (0), medium (1) and low (2) confidence, approximating
// the BATAGE dual-counter confidence test: the probability estimate is
// (m+1)/(n+m+2) where n is the majority count and m the minority count.
func (d *DualCounter) Confidence() int {
	n, m := d.NumTaken, d.NumNotTaken
	if n < m {
		n, m = m, n
	}
	// Estimated misprediction probability is (m+1)/(n+m+2).
	switch {
	case int(n+1) >= 3*int(m+1): // p < 1/3: high confidence
		return 0
	case int(n+1) >= 2*int(m+1)-1: // p around 1/3..2/5: medium (n+1 >= 2(m+1)-1 widens the band)
		return 1
	default:
		return 2
	}
}

// IsHighConfidence reports Confidence() == 0.
func (d *DualCounter) IsHighConfidence() bool { return d.Confidence() == 0 }
