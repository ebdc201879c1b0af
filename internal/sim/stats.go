package sim

import (
	"cmp"
	"slices"
	"sync"
)

// branchEntry is one static branch: its address and, once it is counted
// past warm-up as a conditional branch, how often it executed and how often
// it was mispredicted. Branches seen only in warm-up or only as
// non-conditional branches keep zero counters.
type branchEntry struct {
	ip     uint64
	occ    uint64
	missed uint64
}

// branchStats accumulates per-static-branch counters. entries holds every
// branch address the run has seen, in first-seen order; slots is an
// open-addressed, linear-probing hash table (power-of-two size) mapping an
// address to its entry. The hot loop probes it once per branch and then
// touches a single entry, so it must stay several times cheaper than a Go
// map lookup — part of what keeps the simulator in the paper's "results
// within seconds" class.
type branchStats struct {
	slots   []int32 // hash slot -> entry index + 1; 0 = empty
	mask    uint64
	entries []branchEntry
}

const branchStatsInitialSlots = 4096

// statsPool recycles branch statistics across runs, so a sweep cell starts
// on a slot table already grown by the previous cell instead of regrowing
// (and rezeroing) it from the initial size.
var statsPool = sync.Pool{New: func() any {
	return &branchStats{slots: make([]int32, branchStatsInitialSlots), mask: branchStatsInitialSlots - 1}
}}

func newBranchStats() *branchStats { return statsPool.Get().(*branchStats) }

// release clears s and returns it to the pool; s must not be used again.
func (s *branchStats) release() {
	clear(s.slots)
	s.entries = s.entries[:0]
	statsPool.Put(s)
}

func ipHash(ip uint64) uint64 {
	ip ^= ip >> 33
	ip *= 0xff51afd7ed558ccd
	ip ^= ip >> 33
	return ip
}

// entry returns the entry of ip, appending a zeroed one if ip is new. The
// pointer is valid until the next call.
func (s *branchStats) entry(ip uint64) *branchEntry {
	slot := ipHash(ip) & s.mask
	for {
		idx := s.slots[slot]
		if idx == 0 {
			return s.insert(ip, slot)
		}
		if e := &s.entries[idx-1]; e.ip == ip {
			return e
		}
		slot = (slot + 1) & s.mask
	}
}

// insert appends a new entry for ip into the empty slot, growing the table
// past half load: short probe sequences matter more here than the table's
// size, which the pool keeps across runs.
func (s *branchStats) insert(ip, slot uint64) *branchEntry {
	s.entries = append(s.entries, branchEntry{ip: ip})
	s.slots[slot] = int32(len(s.entries))
	if uint64(len(s.entries))*2 > uint64(len(s.slots)) {
		s.grow()
	}
	return &s.entries[len(s.entries)-1]
}

// grow doubles the slot table and rehashes the entries into it.
func (s *branchStats) grow() {
	s.slots = make([]int32, len(s.slots)*2)
	s.mask = uint64(len(s.slots) - 1)
	for i := range s.entries {
		slot := ipHash(s.entries[i].ip) & s.mask
		for s.slots[slot] != 0 {
			slot = (slot + 1) & s.mask
		}
		s.slots[slot] = int32(i + 1)
	}
}

// counted returns 1 + the index of the last entry with a non-zero
// occurrence count: the number of counter rows a checkpoint stores.
func (s *branchStats) counted() int {
	n := len(s.entries)
	for n > 0 && s.entries[n-1].occ == 0 {
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
// num_most_failed_branches metric). limit > 0 truncates the report (but not
// the metric).
//
// The set is what walking every mispredicted branch in that order yields,
// stopping once the misses taken reach half of totalMisses. It is found by
// selection instead of a full sort (DESIGN.md, "Branch statistics"): a
// histogram of miss counts gives the boundary count T of the last branch
// taken and how many branches at T are needed; only the branches above T
// are sorted, and those at T are taken by address.
func mostFailed(stats *branchStats, totalMisses, simInstr uint64, limit int) ([]BranchReport, int) {
	if totalMisses == 0 {
		return nil, 0
	}
	var (
		hist         [mostFailedHistCap]int32
		overflowSum  uint64 // misses of the branches in the overflow bucket
		overflowSize int
	)
	for i := range stats.entries {
		if m := stats.entries[i].missed; m < mostFailedHistCap {
			hist[m]++
		} else {
			overflowSum += m
			overflowSize++
		}
	}
	if 2*overflowSum >= totalMisses {
		// The overflow bucket alone covers half: sort it and walk it.
		sel := make([]branchEntry, 0, overflowSize)
		for i := range stats.entries {
			if stats.entries[i].missed >= mostFailedHistCap {
				sel = append(sel, stats.entries[i])
			}
		}
		slices.SortFunc(sel, byMissesThenIP)
		var cum uint64
		n := 0
		for n < len(sel) && 2*cum < totalMisses {
			cum += sel[n].missed
			n++
		}
		return branchReports(sel[:n], simInstr, limit), n
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
	// every mispredicted branch then.
	sel := make([]branchEntry, 0, nAbove+k)
	var atT []uint64
	if t > 0 {
		atT = make([]uint64, 0, hist[t])
	}
	for i := range stats.entries {
		switch e := &stats.entries[i]; {
		case e.missed > t:
			sel = append(sel, *e)
		case e.missed == t && t > 0:
			atT = append(atT, e.ip)
		}
	}
	slices.SortFunc(sel, byMissesThenIP)
	slices.Sort(atT)
	for _, ip := range atT[:k] {
		sel = append(sel, *stats.entry(ip)) // a known address: no insert
	}
	return branchReports(sel, simInstr, limit), len(sel)
}

// byMissesThenIP orders branches by descending misses, ties by address.
func byMissesThenIP(a, b branchEntry) int {
	if c := cmp.Compare(b.missed, a.missed); c != 0 {
		return c
	}
	return cmp.Compare(a.ip, b.ip)
}

// branchReports renders the first limit (all when limit <= 0) of the
// selected branches.
func branchReports(sel []branchEntry, simInstr uint64, limit int) []BranchReport {
	if limit > 0 && len(sel) > limit {
		sel = sel[:limit]
	}
	if len(sel) == 0 {
		return nil
	}
	reports := make([]BranchReport, len(sel))
	kilo := float64(simInstr) / 1000
	for i, e := range sel {
		reports[i] = BranchReport{
			IP:          e.ip,
			Occurrences: e.occ,
			Accuracy:    1 - float64(e.missed)/float64(e.occ),
		}
		if kilo > 0 {
			reports[i].MPKI = float64(e.missed) / kilo
		}
	}
	return reports
}
