package sim

import (
	"cmp"
	"slices"
	"sync"
)

// counters are a run's per-static-branch counters, dense by the IP ids of
// the trace's static table: how often each branch executed past warm-up as
// a conditional branch, and how often it was mispredicted. Branches seen
// only in warm-up or only as non-conditional branches keep zero counters.
// Only a run that reports keeps them: a sweep cell counts its totals alone.
type counters struct {
	occ, missed []uint64
}

// countersPool recycles counters across runs, so a run starts on arrays
// already grown by the previous one instead of regrowing them.
var countersPool = sync.Pool{New: func() any { return new(counters) }}

// grow extends the counters, zeroed, to cover n IP ids.
func (c *counters) grow(n int) {
	if old := len(c.occ); n > old {
		c.occ = slices.Grow(c.occ, n-old)[:n]
		c.missed = slices.Grow(c.missed, n-old)[:n]
		clear(c.occ[old:])
		clear(c.missed[old:])
	}
}

// release empties c and returns it to the pool; c must not be used again.
func (c *counters) release() {
	c.occ, c.missed = c.occ[:0], c.missed[:0]
	countersPool.Put(c)
}

// counted returns 1 + the last IP id below hw with a non-zero occurrence
// count: the number of counter rows a checkpoint stores.
func (c *counters) counted(hw int) int {
	n := hw
	for n > 0 && c.occ[n-1] == 0 {
		n--
	}
	return n
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mostFailedHistCap bounds the exact buckets of mostFailed's miss-count
// histogram; counts at or above it share one overflow bucket.
const mostFailedHistCap = 1024

// mostFailed returns the smallest set of branches that covers half of all
// mispredictions, sorted by descending misprediction count and then by
// ascending address, and the size of that set (the
// num_most_failed_branches metric). ips, occ and missed are indexed by IP
// id and cover the run's branches (occ and missed set the count); order
// lists the same ids by ascending address (sortByIP). limit > 0 truncates
// the report (but not the metric).
//
// The set is what walking every mispredicted branch in that order yields,
// stopping once the misses taken reach half of totalMisses. It is found by
// selection in linear time (DESIGN.md, "Branch statistics"): a histogram of
// miss counts gives the boundary count T of the last branch taken and how
// many branches at T are needed, and one pass over the address order
// places every branch above T by counting sort into its bucket, in address
// order, and takes the first branches at T. Only the overflow bucket is
// sorted by comparison.
func mostFailed(ips, occ, missed []uint64, order []uint32, totalMisses, simInstr uint64, limit int) ([]BranchReport, int) {
	if totalMisses == 0 {
		return nil, 0
	}
	var (
		hist         [mostFailedHistCap]int32
		overflowSum  uint64 // misses of the branches in the overflow bucket
		overflowSize int
	)
	for _, m := range missed {
		if m < mostFailedHistCap {
			hist[m]++
		} else {
			overflowSum += m
			overflowSize++
		}
	}
	byMisses := func(a, b uint32) int {
		if c := cmp.Compare(missed[b], missed[a]); c != 0 {
			return c
		}
		return cmp.Compare(ips[a], ips[b])
	}
	overflow := func() []uint32 {
		if overflowSize == 0 {
			return nil
		}
		sel := make([]uint32, 0, overflowSize)
		for id, m := range missed {
			if m >= mostFailedHistCap {
				sel = append(sel, uint32(id))
			}
		}
		slices.SortFunc(sel, byMisses)
		return sel
	}
	if 2*overflowSum >= totalMisses {
		// The overflow bucket alone covers half: sort it and walk it.
		sel := overflow()
		var cum uint64
		n := 0
		for n < len(sel) && 2*cum < totalMisses {
			cum += missed[sel[n]]
			n++
		}
		return branchReports(ips, occ, missed, sel[:n], simInstr, limit), n
	}
	// Walk the exact buckets from the top to the boundary count t, where
	// the misses of every branch above t plus those of k branches at t
	// first reach half of totalMisses.
	cum, nAbove := overflowSum, overflowSize
	t, k := uint64(0), 0
	for c := uint64(mostFailedHistCap - 1); c > 0; c-- {
		b := uint64(hist[c]) * c
		if 2*(cum+b) >= totalMisses {
			t, k = c, int((totalMisses-2*cum+2*c-1)/(2*c))
			break
		}
		cum += b
		nAbove += int(hist[c])
	}
	// t stays 0 only when the counters cover less than half of totalMisses
	// (a run whose totals disagree with its counters): like the walk, take
	// every mispredicted branch then. The histogram becomes each bucket's
	// next free position in sel: the overflow first, then the buckets from
	// the top, then the k branches at t.
	sel := make([]uint32, nAbove+k)
	copy(sel, overflow())
	pos := int32(overflowSize)
	for c := mostFailedHistCap - 1; c > int(t); c-- {
		pos, hist[c] = pos+hist[c], pos
	}
	atT := nAbove
	for _, id := range order {
		switch m := missed[id]; {
		case m >= mostFailedHistCap:
		case m > t:
			sel[hist[m]] = id
			hist[m]++
		case m == t && t > 0 && atT < len(sel):
			sel[atT] = id
			atT++
		}
	}
	return branchReports(ips, occ, missed, sel, simInstr, limit), len(sel)
}

// sortByIP returns the ids 0…len(ips)−1 ordered by ascending address: an
// LSD radix sort on the address bytes that skips the bytes all addresses
// share, so ordering a trace's addresses takes a few linear passes, not a
// comparison sort.
func sortByIP(ips []uint64) []uint32 {
	order, tmp := make([]uint32, len(ips)), make([]uint32, len(ips))
	common, some := ^uint64(0), uint64(0)
	for i, ip := range ips {
		order[i] = uint32(i)
		common &= ip
		some |= ip
	}
	varying := common ^ some
	for shift := 0; shift < 64; shift += 8 {
		if varying>>shift&0xff == 0 {
			continue
		}
		var start [257]int
		for _, id := range order {
			start[ips[id]>>shift&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, id := range order {
			d := ips[id] >> shift & 0xff
			tmp[start[d]] = id
			start[d]++
		}
		order, tmp = tmp, order
	}
	return order
}

// branchReports renders the first limit (all when limit <= 0) of the
// selected branches.
func branchReports(ips, occ, missed []uint64, sel []uint32, simInstr uint64, limit int) []BranchReport {
	if limit > 0 && len(sel) > limit {
		sel = sel[:limit]
	}
	if len(sel) == 0 {
		return nil
	}
	reports := make([]BranchReport, len(sel))
	kilo := float64(simInstr) / 1000
	for i, id := range sel {
		reports[i] = BranchReport{
			IP:          ips[id],
			Occurrences: occ[id],
			Accuracy:    1 - float64(missed[id])/float64(occ[id]),
		}
		if kilo > 0 {
			reports[i].MPKI = float64(missed[id]) / kilo
		}
	}
	return reports
}
