package tracecache

import (
	"context"
	"errors"
	"slices"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
)

// TestRecordRoundTrip: a record keeps the outcome and the gap at both ends
// of the SBBT range and at MaxGap, and replays to the event it came from. A
// gap past MaxGap ends the batch with a limit fault after the records
// before it.
func TestRecordRoundTrip(t *testing.T) {
	var evs []bp.Event
	for _, gap := range []uint64{0, 1, bp.MaxInstrGap, MaxGap} {
		for _, taken := range []bool{false, true} {
			evs = append(evs, bp.Event{
				Branch:                bp.Branch{IP: 0x400000 + gap, Target: 0x500000, Opcode: bp.OpCondJump, Taken: taken},
				InstrsSinceLastBranch: gap,
			})
		}
	}
	tab := NewTable()
	recs, err := tab.Intern(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	if recordBytes != 8 {
		t.Errorf("a record is %d bytes, want 8", recordBytes)
	}
	for i, r := range recs {
		if r.Taken() != evs[i].Branch.Taken || r.Gap() != evs[i].InstrsSinceLastBranch {
			t.Errorf("record %d: taken %v gap %d, want %v and %d", i, r.Taken(), r.Gap(), evs[i].Branch.Taken, evs[i].InstrsSinceLastBranch)
		}
	}
	if got := replay(tab.View(), recs); !slices.Equal(got, evs) {
		t.Errorf("replay differs from the events:\n got %v\nwant %v", got, evs)
	}

	tooFar := append(slices.Clone(evs[:3]), bp.Event{Branch: evs[0].Branch, InstrsSinceLastBranch: MaxGap + 1}, evs[4])
	recs, err = tab.Intern(nil, tooFar)
	if !errors.Is(err, faults.ErrLimit) || len(recs) != 3 {
		t.Errorf("gap past MaxGap: %d records, err %v; want 3 and a limit fault", len(recs), err)
	}
}

// TestTableManyTargets: an indirect branch with many targets, and a target
// that returns after others, interns one tuple per target under one
// address and one IP id, and every repeat finds its tuple again.
func TestTableManyTargets(t *testing.T) {
	const ip, targets = 0x401000, 300
	var evs []bp.Event
	for round := 0; round < 3; round++ {
		for i := 0; i < targets; i++ {
			target := uint64(0x600000 + 0x40*((i*7+round)%targets))
			evs = append(evs, bp.Event{Branch: bp.Branch{IP: ip, Target: target, Opcode: bp.OpIndJump, Taken: true}})
			// An unrelated branch between the targets keeps other slots busy.
			evs = append(evs, bp.Event{Branch: bp.Branch{IP: 0x402000 + uint64(i%5)*4, Target: 0x403000, Opcode: bp.OpCondJump, Taken: i%2 == 0}})
		}
	}
	tab := NewTable()
	recs, err := tab.Intern(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	v := tab.View()
	if len(v.IPs) != 6 || v.IPs[0] != ip {
		t.Fatalf("addresses %x, want the indirect branch first of 6", v.IPs)
	}
	if len(v.Statics) != targets+5 {
		t.Errorf("%d tuples, want %d targets and 5 other branches", len(v.Statics), targets)
	}
	for i, s := range v.Statics {
		if (s.IP == ip) != (s.IPID == 0) {
			t.Errorf("tuple %d (%#x) has IP id %d", i, s.IP, s.IPID)
		}
	}
	if got := replay(v, recs); !slices.Equal(got, evs) {
		t.Error("replay differs from the events")
	}
	// Interning the same events again adds nothing and yields the same ids.
	again, err := tab.Intern(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, recs) || len(tab.View().Statics) != len(v.Statics) {
		t.Error("re-interning known tuples changed the ids or grew the table")
	}
}

// TestTableFirstSeenOrderAcrossGrowth: IP and tuple ids follow first-seen
// order across slot-table growth, every tuple maps back to its own id, and
// a reset table comes back empty.
func TestTableFirstSeenOrderAcrossGrowth(t *testing.T) {
	const n = 3 * 4096
	evs := make([]bp.Event, n)
	for i := range evs {
		evs[i].Branch = bp.Branch{IP: uint64(n-i)*0x1000 + 0x400000, Target: uint64(i), Opcode: bp.OpCondJump}
	}
	tab := NewTable()
	recs, err := tab.Intern(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.byIP.slots) <= 1<<slotTableInitialLog {
		t.Fatalf("%d slots: the table never grew", len(tab.byIP.slots))
	}
	v := tab.View()
	for i, r := range recs {
		if r.ID != uint32(i) || v.Statics[i].IPID != uint32(i) || v.IPs[i] != evs[i].Branch.IP {
			t.Fatalf("event %d: tuple %d, IP id %d, address %#x", i, r.ID, v.Statics[r.ID].IPID, v.IPs[i])
		}
	}
	tab.Reset()
	if v := tab.View(); len(v.IPs) != 0 || len(v.Statics) != 0 || slices.ContainsFunc(tab.byIP.slots, func(s uint32) bool { return s != 0 }) {
		t.Errorf("reset table holds %d addresses, %d tuples", len(v.IPs), len(v.Statics))
	}
	recs, _ = tab.Intern(recs[:0], evs[5:7])
	if recs[0].ID != 0 || recs[1].ID != 1 || len(tab.View().IPs) != 2 {
		t.Errorf("a reset table does not count ids from 0: %v", recs)
	}
}

// TestTableLifetime: each entry owns the table its load creates. The
// table's bytes are charged to the entry with its records, leave the
// budget when the entry is evicted, and a later load of the same trace
// builds a table of its own; a turned-away trace charges no table.
func TestTableLifetime(t *testing.T) {
	spec, other := testSpec("life", 1000), testSpec("other", 1000)
	evs := readAll(t, spec)
	one := int64(len(evs))*recordBytes + tableBytes(t, evs)
	c := New(one * 3 / 2) // one trace at a time
	e, err := c.Acquire(context.Background(), nil, "life", genLoad(t, spec, nil))
	if err != nil {
		t.Fatal(err)
	}
	first := e.View()
	if !equalEvents(drain(t, e), evs) {
		t.Fatal("the entry's table does not replay its records")
	}
	c.Release(e)
	if st := c.Stats(); st.Entries != 1 || st.BytesUsed != one {
		t.Errorf("with the entry resident: %+v, want 1 entry and %d bytes, records and table", st, one)
	}
	// Loading another trace evicts the only entry of the first, and its
	// table goes with it.
	e, err = c.Acquire(context.Background(), nil, "other", genLoad(t, other, nil))
	if err != nil {
		t.Fatal(err)
	}
	c.Release(e)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 || st.BytesUsed != one {
		t.Errorf("after evicting the first trace: %+v, want 1 eviction and only the second trace's %d bytes", st, one)
	}
	// Loaded again, the first trace gets a new table.
	e, err = c.Acquire(context.Background(), nil, "life", genLoad(t, spec, nil))
	if err != nil {
		t.Fatal(err)
	}
	if again := e.View(); &again.Statics[0] == &first.Statics[0] {
		t.Error("a reloaded trace reuses the table of its evicted entry")
	}
	c.Release(e)
	// A trace turned away by its header charges nothing, table included.
	before := c.Stats().BytesUsed
	e, err = c.Acquire(context.Background(), nil, "big", genLoad(t, testSpec("big", 100_000), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !e.TooBig() || c.Stats().BytesUsed != before {
		t.Errorf("a too-big trace: verdict %v, %d bytes resident, want true and %d", e.TooBig(), c.Stats().BytesUsed, before)
	}
	c.Release(e)
}
