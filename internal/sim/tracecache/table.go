package tracecache

import (
	"fmt"
	"slices"
	"unsafe"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
)

// Record is one dynamic branch of a decoded trace in 8 bytes: the id of its
// static (IP, target, opcode) tuple in the trace's Table, its outcome and
// the instruction gap before it. SBBT gaps fit in 12 bits (bp.MaxInstrGap);
// a Record holds 31, so BT9 traces, whose gaps are unbounded text, intern
// too.
type Record struct {
	ID   uint32 // tuple id in the trace's Table
	bits uint32 // gap<<1 | taken
}

// MaxGap is the largest instruction gap a Record holds.
const MaxGap = 1<<31 - 1

// Taken reports the branch outcome.
func (r Record) Taken() bool { return r.bits&1 != 0 }

// Gap is the number of instructions executed since the previous branch,
// excluding both (bp.Event.InstrsSinceLastBranch).
func (r Record) Gap() uint64 { return uint64(r.bits >> 1) }

// recordBytes is the in-memory footprint charged per decoded record.
const recordBytes = int64(unsafe.Sizeof(Record{}))

// Static is one interned static branch: the tuple a Record's ID names, and
// the id of its address.
type Static struct {
	IP, Target uint64
	Opcode     bp.Opcode
	IPID       uint32
}

// Branch returns the dynamic branch of r, whose tuple is s.
func (s *Static) Branch(r Record) bp.Branch {
	return bp.Branch{IP: s.IP, Target: s.Target, Opcode: s.Opcode, Taken: r.Taken()}
}

// Table is the static branch table of one trace. It interns (IP, target,
// opcode) tuples and their addresses, each in order of first appearance:
// tuple ids and IP ids are dense and count up from 0 as Intern meets new
// ones. A table has one loader, which interns the trace batch by batch in
// trace order: a cache entry's load, or a prefetch stream's producer. That
// gives its ids in first-seen order (DESIGN.md, "Static tables"). Entries
// only grow, so a View taken before a later Intern stays valid, and readers
// of a View need no lock while the loader appends.
type Table struct {
	ips     []uint64  // by IP id
	statics []Static  // by tuple id
	byIP    slotTable // address → its most recent tuple
	// byTuple holds every tuple of each address that has more than one.
	byTuple slotTable
	size    int64 // memory footprint, as of the last Intern
}

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{byIP: newSlotTable(), byTuple: newSlotTable()}
	t.resize()
	return t
}

// Reset empties t for reuse, keeping its grown storage.
func (t *Table) Reset() {
	t.ips, t.statics = t.ips[:0], t.statics[:0]
	t.byIP.reset()
	t.byTuple.reset()
}

// View is a reader's snapshot of a Table: every tuple and address interned
// when it was taken. It stays valid while the table grows.
type View struct {
	Statics []Static // by tuple id
	IPs     []uint64 // by IP id
}

// View returns the table as it stands.
func (t *Table) View() View { return View{Statics: t.statics, IPs: t.ips} }

// Size returns the table's memory footprint in bytes, as charged to the
// cache budget with the entry that owns the table.
func (t *Table) Size() int64 { return t.size }

// Intern appends one record per event of evs to dst, interning new tuples,
// and returns it. An event whose gap exceeds MaxGap ends the batch: the
// records before it are returned with a faults.ErrLimit-classified error.
func (t *Table) Intern(dst []Record, evs []bp.Event) ([]Record, error) {
	defer t.resize()
	n := len(dst)
	dst = slices.Grow(dst, len(evs))[:n+len(evs)]
	out := dst[n:]
	// One probe keyed by address, over the arrays as they stand until
	// miss grows them. A slot names its address's most recent tuple,
	// so an address that keeps its target and opcode is found there.
	slots, statics, shift := t.byIP.slots, t.statics, t.byIP.shift
	for i := range evs {
		ev := &evs[i]
		gap := ev.InstrsSinceLastBranch
		if gap > MaxGap {
			return dst[:n+i], fmt.Errorf("tracecache: %d instructions between branches exceeds %d: %w", gap, MaxGap, faults.ErrLimit)
		}
		b := &ev.Branch
		slot := home(b.IP, shift)
		v := slots[slot]
		for v != 0 && statics[v-1].IP != b.IP {
			slot = (slot + 1) & uint64(len(slots)-1)
			v = slots[slot]
		}
		if v == 0 || statics[v-1].Target != b.Target || statics[v-1].Opcode != b.Opcode {
			v = t.miss(b, slot) + 1
			slots, statics, shift = t.byIP.slots, t.statics, t.byIP.shift
		}
		out[i] = Record{ID: v - 1, bits: uint32(gap)<<1 | uint32(b2u(b.Taken))}
	}
	return dst, nil
}

// miss returns the id of b's tuple when the address probe ended at
// slot without finding it. An empty slot means a new address, interned
// there with b's tuple. A slot naming another tuple of b's address means
// the address changed target or opcode: a probe keyed by the whole tuple
// finds or interns b's, and the slot names it from now on.
func (t *Table) miss(b *bp.Branch, slot uint64) uint32 {
	if v := t.byIP.slots[slot]; v != 0 {
		id := t.otherTuple(b, v-1)
		t.byIP.slots[slot] = id + 1
		return id
	}
	ipid, id := uint32(len(t.ips)), uint32(len(t.statics))
	t.ips = append(t.ips, b.IP)
	t.statics = append(t.statics, Static{IP: b.IP, Target: b.Target, Opcode: b.Opcode, IPID: ipid})
	t.byIP.put(slot, id, t.ipOf)
	return id
}

// otherTuple returns the id of b's tuple, a tuple of a known address
// other than its most recent one, cur, interning it if new. An address's
// first new tuple brings the one before it into byTuple.
func (t *Table) otherTuple(b *bp.Branch, cur uint32) uint32 {
	i, ok := t.findTuple(b.IP, b.Target, b.Opcode)
	if ok {
		return t.byTuple.slots[i] - 1
	}
	s := &t.statics[cur]
	if j, ok := t.findTuple(s.IP, s.Target, s.Opcode); !ok {
		t.byTuple.put(j, cur, t.tupleKeyOf)
		i, _ = t.findTuple(b.IP, b.Target, b.Opcode) // put may have grown byTuple
	}
	id := uint32(len(t.statics))
	t.statics = append(t.statics, Static{IP: b.IP, Target: b.Target, Opcode: b.Opcode, IPID: t.statics[cur].IPID})
	t.byTuple.put(i, id, t.tupleKeyOf)
	return id
}

// findTuple probes byTuple for a tuple: its slot, or the empty slot
// where it would go.
func (t *Table) findTuple(ip, target uint64, op bp.Opcode) (i uint64, ok bool) {
	i = t.byTuple.home(tupleKey(ip, target, op))
	for v := t.byTuple.slots[i]; v != 0; v = t.byTuple.slots[i] {
		if s := &t.statics[v-1]; s.IP == ip && s.Target == target && s.Opcode == op {
			return i, true
		}
		i = t.byTuple.next(i)
	}
	return i, false
}

// ipOf and tupleKeyOf give the slot-table keys of a stored
// tuple, for rehashing.
func (t *Table) ipOf(id uint32) uint64 { return t.statics[id].IP }

func (t *Table) tupleKeyOf(id uint32) uint64 {
	s := &t.statics[id]
	return tupleKey(s.IP, s.Target, s.Opcode)
}

func tupleKey(ip, target uint64, op bp.Opcode) uint64 {
	return ip ^ (target+uint64(op))*0xff51afd7ed558ccd
}

// resize recomputes the table's footprint: its interned storage, so a
// table's charge changes only when Intern grows it.
func (t *Table) resize() {
	t.size = int64(cap(t.statics))*int64(unsafe.Sizeof(Static{})) + int64(cap(t.ips))*8 +
		int64(len(t.byIP.slots)+len(t.byTuple.slots))*4
}

// slotTable is an open-addressed table of tuple ids (1 + id, 0 = empty):
// linear probing from a Fibonacci-hashed home slot, one multiply whose high
// bits spread the strided addresses of code, doubled past three-quarter
// load. Its keys live in the tuples it names.
type slotTable struct {
	slots []uint32
	shift uint // 64 − log2(len(slots))
	used  int
}

const slotTableInitialLog = 6

func newSlotTable() slotTable {
	return slotTable{slots: make([]uint32, 1<<slotTableInitialLog), shift: 64 - slotTableInitialLog}
}

// home is the first slot of key in a table of 1<<(64−shift) slots.
func home(key uint64, shift uint) uint64 { return key * 0x9e3779b97f4a7c15 >> shift }

func (s *slotTable) home(key uint64) uint64 { return home(key, s.shift) }

func (s *slotTable) next(i uint64) uint64 { return (i + 1) & uint64(len(s.slots)-1) }

// put stores id in the empty slot i, doubling the table past three-quarter
// load; keyOf gives the key of a stored id, to rehash it.
func (s *slotTable) put(i uint64, id uint32, keyOf func(uint32) uint64) {
	s.slots[i] = id + 1
	if s.used++; s.used*4 <= len(s.slots)*3 {
		return
	}
	old := s.slots
	s.slots, s.shift = make([]uint32, 2*len(old)), s.shift-1
	for _, v := range old {
		if v != 0 {
			j := s.home(keyOf(v - 1))
			for s.slots[j] != 0 {
				j = s.next(j)
			}
			s.slots[j] = v
		}
	}
}

func (s *slotTable) reset() {
	clear(s.slots)
	s.used = 0
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
