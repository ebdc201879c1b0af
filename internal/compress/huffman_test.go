package compress

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// canonicalCodesSorted is the comparison-sort construction canonicalCodes
// replaced, kept as its oracle: symbols ordered by (length, symbol) take
// consecutive codes, shifted left whenever the length grows.
func canonicalCodesSorted(lengths [256]uint8) [256]uint16 {
	type sym struct {
		s int
		l uint8
	}
	var syms []sym
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, sym{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].l != syms[j].l {
			return syms[i].l < syms[j].l
		}
		return syms[i].s < syms[j].s
	})
	var codes [256]uint16
	code := uint16(0)
	prevLen := uint8(0)
	for _, sy := range syms {
		code <<= sy.l - prevLen
		prevLen = sy.l
		codes[sy.s] = reverseBits(code, sy.l)
		code++
	}
	return codes
}

// TestCanonicalCodesMatchSort: counting assigns the codes the sort does,
// on the length sets the encoder builds from random frequencies, on random
// sets that satisfy the Kraft inequality, and on arbitrary headers whose
// 4-bit lengths run past huffMaxLen or oversubscribe the code space (which
// buildTables rejects after assigning their codes).
func TestCanonicalCodesMatchSort(t *testing.T) {
	r := rand.New(rand.NewPCG(32, 1))
	check := func(kind string, lengths [256]uint8) {
		t.Helper()
		if got, want := canonicalCodes(lengths), canonicalCodesSorted(lengths); got != want {
			t.Fatalf("%s lengths %v: counted codes differ from sorted ones", kind, lengths)
		}
	}
	for range 300 {
		var freq [256]uint64
		used := 1 + r.IntN(256)
		for range used {
			freq[r.IntN(256)] += 1 + r.Uint64N(1<<r.IntN(20))
		}
		lengths, ok := buildLengths(&freq)
		if !ok {
			continue
		}
		check("encoder", lengths)
	}
	for range 20000 {
		var lengths [256]uint8
		kraft := 0 // in units of 2^-huffMaxLen
		for _, s := range r.Perm(256)[:1+r.IntN(256)] {
			l := uint8(1 + r.IntN(huffMaxLen))
			if w := 1 << (huffMaxLen - l); kraft+w <= 1<<huffMaxLen {
				lengths[s], kraft = l, kraft+w
			}
		}
		check("kraft", lengths)
	}
	for range 5000 {
		var lengths [256]uint8
		for s := range lengths {
			lengths[s] = uint8(r.IntN(16))
		}
		check("nibble", lengths)
	}
}
