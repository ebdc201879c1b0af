package tage

import (
	"fmt"

	"mbplib/internal/utils"
)

// This file is the index and tag hashing shared by the TAGE family (TAGE
// here, BATAGE in its own package). Each tagged table hashes the branch
// address with three folds of the global history:
//
//	index = XorFold(ip ^ ip>>L ^ F(h,L) ^ F(h,T)<<1, L)
//	tag   = XorFold(ip ^ F(h,T) ^ F(h,T')<<1, T)
//
// where F(h,w) folds the table's history length into w bits, L is the
// table's log size, T its tag width and T' = max(T-1, 1). Mixing two fold
// widths keeps the index aperiodic even when the history itself is
// periodic with a period divisible by one fold width (e.g. a single loop
// branch), which would otherwise alias every loop position onto one entry.
//
// XorFold is linear over XOR, so each hash splits into an address part and
// a history part that fold separately. The address part depends only on
// the width, so it is computed once per distinct width rather than once per
// table. The history part is already small — at most max(L, T+1) bits — so
// its fold takes a fixed, per-table number of terms (two in the default
// geometry for the index, one for the tag).

// maxTables bounds the number of tagged tables, so a table-match set fits
// one machine word.
const maxTables = 64

// Hasher computes the base index, table indices and partial tags of a
// TAGE-family predictor from one fold bank, which it owns together with the
// global history. Each table reads three folds of its history length: into
// its index width, its tag width and its tag width minus one. Tables share
// a fold wherever the (length, width) pairs coincide — in the default
// geometry the index fold and the narrower tag fold are the same.
type Hasher struct {
	folds   *utils.FoldBank
	logBase int
	tables  []tableHash

	// Distinct index and tag widths, and the address part of the hash for
	// each, refreshed by every Hash call.
	idxWidths []int
	tagWidths []int
	ipIdx     []uint64
	ipTag     []uint64
}

// tableHash is the per-table hashing geometry.
type tableHash struct {
	folds            [3]int // index, tag and narrow-tag folds in the bank
	idxSlot, tagSlot int    // into ipIdx / ipTag
	idxW, tagW       uint   // output widths
	idxBits, tagBits uint   // significant bits of the history parts
	idxMask, tagMask uint64 // output masks
}

// NewHasher validates the table geometry and returns a hasher over a zero
// history for it and a base table of 2^logBase entries. The specs must list
// strictly ascending history lengths; it panics otherwise.
func NewHasher(specs []TableSpec, logBase int) *Hasher {
	if len(specs) > maxTables {
		panic(fmt.Sprintf("tage: %d tagged tables, at most %d supported", len(specs), maxTables))
	}
	var folds []utils.Fold
	foldSlot := func(f utils.Fold) int {
		for i, g := range folds {
			if g == f {
				return i
			}
		}
		folds = append(folds, f)
		return len(folds) - 1
	}
	h := &Hasher{logBase: logBase}
	for i, ts := range specs {
		if ts.HistLen < 1 || ts.LogSize < 1 || ts.LogSize > 24 || ts.TagBits < 1 || ts.TagBits > 16 {
			panic(fmt.Sprintf("tage: invalid table spec %+v", ts))
		}
		if i > 0 && ts.HistLen <= specs[i-1].HistLen {
			panic("tage: history lengths must be strictly ascending")
		}
		tagLow := max(ts.TagBits-1, 1)
		h.tables = append(h.tables, tableHash{
			folds: [3]int{
				foldSlot(utils.Fold{Length: ts.HistLen, Width: ts.LogSize}),
				foldSlot(utils.Fold{Length: ts.HistLen, Width: ts.TagBits}),
				foldSlot(utils.Fold{Length: ts.HistLen, Width: tagLow}),
			},
			idxSlot: widthSlot(&h.idxWidths, ts.LogSize),
			tagSlot: widthSlot(&h.tagWidths, ts.TagBits),
			idxW:    uint(ts.LogSize),
			tagW:    uint(ts.TagBits),
			idxBits: uint(max(ts.LogSize, ts.TagBits+1)),
			tagBits: uint(max(ts.TagBits, tagLow+1)),
			idxMask: 1<<ts.LogSize - 1,
			tagMask: 1<<ts.TagBits - 1,
		})
	}
	h.folds = utils.NewFoldBank(folds)
	h.ipIdx = make([]uint64, len(h.idxWidths))
	h.ipTag = make([]uint64, len(h.tagWidths))
	return h
}

// widthSlot returns the position of w in *widths, appending it if new.
func widthSlot(widths *[]int, w int) int {
	for i, x := range *widths {
		if x == w {
			return i
		}
	}
	*widths = append(*widths, w)
	return len(*widths) - 1
}

// Hash writes every table's index into idx and partial tag into tag (both
// of length at least the table count) for the branch at ip, under the
// current history, and returns the base-table index.
func (h *Hasher) Hash(ip uint64, idx []uint32, tag []uint16) uint32 {
	for k, w := range h.idxWidths {
		h.ipIdx[k] = utils.XorFold(ip^ip>>uint(w), w)
	}
	for k, w := range h.tagWidths {
		h.ipTag[k] = utils.XorFold(ip, w)
	}
	f := h.folds.Values()
	tables := h.tables
	idx, tag = idx[:len(tables)], tag[:len(tables)]
	for i := range tables {
		t := &tables[i]
		fIdx, fTag, fTagLow := f[t.folds[0]], f[t.folds[1]], f[t.folds[2]]
		hi := fIdx ^ fTag<<1
		x := hi
		for s := t.idxW; s < t.idxBits; s += t.idxW {
			x ^= hi >> s
		}
		idx[i] = uint32(h.ipIdx[t.idxSlot] ^ x&t.idxMask)
		ht := fTag ^ fTagLow<<1
		y := ht
		for s := t.tagW; s < t.tagBits; s += t.tagW {
			y ^= ht >> s
		}
		tag[i] = uint16(h.ipTag[t.tagSlot] ^ y&t.tagMask)
	}
	return uint32(utils.XorFold(ip>>2, h.logBase))
}

// Push shifts a resolved outcome into the global history and every fold.
func (h *Hasher) Push(taken bool) { h.folds.Push(taken) }

// History returns the global history register, for checkpointing.
func (h *Hasher) History() *utils.GlobalHistory { return &h.folds.GlobalHistory }

// TableFolds returns table i's index, tag and narrow-tag fold values, for
// checkpointing.
func (h *Hasher) TableFolds(i int) [3]uint64 {
	var v [3]uint64
	for k, slot := range h.tables[i].folds {
		v[k] = h.folds.Value(slot)
	}
	return v
}

// SetTableFolds restores table i's folds from values read with TableFolds.
func (h *Hasher) SetTableFolds(i int, v [3]uint64) {
	for k, slot := range h.tables[i].folds {
		h.folds.SetValue(slot, v[k])
	}
}
