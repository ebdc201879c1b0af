package sim

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sim/tracecache"
	"mbplib/internal/tracegen"
)

// mostFailedOracle is the full-sort reference of mostFailed, over the
// per-array layout (addresses in first-seen order, then occurrence and
// misprediction rows that may stop short of the last address): order every
// mispredicted branch by descending misses and ascending address, and walk
// that order until half of totalMisses is covered.
func mostFailedOracle(ips, occ, missed []uint64, totalMisses, simInstr uint64, limit int) ([]BranchReport, int) {
	if totalMisses == 0 {
		return nil, 0
	}
	order := make([]int32, 0, len(missed))
	for i, m := range missed {
		if m > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(ia, ib int32) int {
		if c := cmp.Compare(missed[ib], missed[ia]); c != 0 {
			return c
		}
		return cmp.Compare(ips[ia], ips[ib])
	})
	var (
		reports []BranchReport
		cum     uint64
		n       int
	)
	kilo := float64(simInstr) / 1000
	for _, i := range order {
		if 2*cum >= totalMisses {
			break
		}
		cum += missed[i]
		n++
		rep := BranchReport{
			IP:          ips[i],
			Occurrences: occ[i],
			Accuracy:    1 - float64(missed[i])/float64(occ[i]),
		}
		if kilo > 0 {
			rep.MPKI = float64(missed[i]) / kilo
		}
		reports = append(reports, rep)
	}
	if limit > 0 && len(reports) > limit {
		reports = reports[:limit]
	}
	return reports, n
}

// statsSet is one generated branch-statistics table in the per-array
// layout.
type statsSet struct {
	ips, occ, missed []uint64
}

// genStatsSet draws a table of n distinct branches whose miss counts come
// from draw. About a fifth of the branches keep zero counters — seen only
// in warm-up or only as non-conditional branches — and some of those trail
// the last counted branch, so the rows stop short of the addresses.
func genStatsSet(r *rand.Rand, n int, draw func() uint64) statsSet {
	var s statsSet
	seen := make(map[uint64]bool, n)
	for len(s.ips) < n {
		ip := uint64(0x400000 + 4*r.IntN(4*n))
		if r.IntN(4) == 0 {
			ip = r.Uint64()
		}
		if seen[ip] {
			continue
		}
		seen[ip] = true
		s.ips = append(s.ips, ip)
		var o, m uint64
		if r.IntN(5) != 0 {
			m = draw()
			o = m + uint64(r.IntN(50))
			if o == 0 {
				o = 1
			}
		}
		s.occ = append(s.occ, o)
		s.missed = append(s.missed, m)
	}
	rows := len(s.ips)
	for rows > 0 && s.occ[rows-1] == 0 {
		rows--
	}
	s.occ, s.missed = s.occ[:rows], s.missed[:rows]
	return s
}

func (s statsSet) sum() uint64 {
	var t uint64
	for _, m := range s.missed {
		t += m
	}
	return t
}

// load lays s out as a run does: the addresses interned into a static
// table in first-seen order, its IP-sorted order, and counter rows by IP
// id covering every address.
func (s statsSet) load(t *testing.T) (ips, occ, missed []uint64, order []uint32) {
	t.Helper()
	tab := tracecache.NewTable()
	evs := make([]bp.Event, len(s.ips))
	for i, ip := range s.ips {
		evs[i].Branch = bp.Branch{IP: ip, Opcode: bp.OpCondJump}
	}
	if _, err := tab.Intern(nil, evs); err != nil {
		t.Fatal(err)
	}
	v := tab.View()
	occ = append(slices.Clone(s.occ), make([]uint64, len(s.ips)-len(s.occ))...)
	missed = append(slices.Clone(s.missed), make([]uint64, len(s.ips)-len(s.missed))...)
	return v.IPs, occ, missed, sortByIP(v.IPs)
}

// TestMostFailedMatchesOracle checks the linear selection against the
// full-sort oracle, byte for byte, over generated tables: heavy ties at the
// boundary count, counts straddling the histogram cap, an overflow bucket
// that covers half on its own, zero-counter branches, totals that disagree
// with the counters, and limits of 0, 1, inside and past the set.
func TestMostFailedMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	const hc = mostFailedHistCap
	shapes := []struct {
		name string
		draw func() uint64
	}{
		{"ties", func() uint64 { return uint64(r.IntN(4)) }},
		{"ties-high", func() uint64 { return 200 + uint64(r.IntN(3)) }},
		{"small", func() uint64 { return uint64(r.IntN(40)) }},
		{"skewed", func() uint64 { return uint64(3000 / (1 + r.IntN(300))) }},
		{"cap-edge", func() uint64 { return hc - 2 + uint64(r.IntN(5)) }},
		{"straddle", func() uint64 { return uint64(r.IntN(3 * hc)) }},
		{"overflow-half", func() uint64 {
			if r.IntN(20) == 0 {
				return hc + uint64(r.IntN(4*hc))
			}
			return uint64(r.IntN(8))
		}},
		{"overflow-ties", func() uint64 {
			if r.IntN(10) == 0 {
				return 5 * hc
			}
			return uint64(r.IntN(3))
		}},
		{"zero", func() uint64 { return 0 }},
	}
	cases := 0
	for _, sh := range shapes {
		for iter := 0; iter < 40; iter++ {
			n := 1 + r.IntN(600)
			if iter%10 == 0 {
				n = 2000 + r.IntN(4000)
			}
			set := genStatsSet(r, n, sh.draw)
			sum := set.sum()
			simInstr := uint64(r.IntN(1_000_000))
			if iter%7 == 0 {
				simInstr = 0
			}
			totals := []uint64{sum, sum + uint64(r.IntN(int(sum)+2)), 3*sum + 1, sum / 2, 1}
			limits := []int{0, 1, 1 + r.IntN(20), len(set.ips) + 5}
			for _, total := range totals {
				for _, limit := range limits {
					ips, occ, missed, order := set.load(t)
					got, gotN := mostFailed(ips, occ, missed, order, total, simInstr, limit)
					want, wantN := mostFailedOracle(set.ips, set.occ, set.missed, total, simInstr, limit)
					gj, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					wj, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					if gotN != wantN || !bytes.Equal(gj, wj) {
						t.Fatalf("%s/%d (n=%d total=%d sum=%d limit=%d): got %d branches %s, oracle %d branches %s",
							sh.name, iter, n, total, sum, limit, gotN, gj, wantN, wj)
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// simcellV1 writes a simcell checkpoint in the version-1 layout from
// explicit per-array rows.
func simcellV1(t *testing.T, instr, cond, miss uint64, ips, occ, missed []uint64, p bp.Checkpointer) []byte {
	t.Helper()
	var pstate, buf bytes.Buffer
	if err := p.Checkpoint(&pstate); err != nil {
		t.Fatal(err)
	}
	cw := bp.NewCkptWriter(&buf)
	cw.Header("simcell", 1)
	cw.U64(instr)
	cw.U64(cond)
	cw.U64(miss)
	cw.U64s(ips)
	cw.U64s(occ)
	cw.U64s(missed)
	cw.Bytes(pstate.Bytes())
	if err := cw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallGshare() bp.Predictor {
	return gshare.New(gshare.WithHistoryLength(10), gshare.WithLogSize(10))
}

// TestRestoreCellStateRejectsBadRows: a checkpoint whose address list
// repeats a branch, or whose rows disagree with each other or with the
// totals, is corrupt, to a loop with counters and to a metrics-only one,
// which checks the rows it drops. A repeated address used to restore and
// then crash the report with an index out of range.
func TestRestoreCellStateRejectsBadRows(t *testing.T) {
	for _, tc := range []struct {
		name              string
		cond, miss        uint64
		ips, occ, missed  []uint64
		wantMessageSubstr string
	}{
		{"duplicate", 2, 2, []uint64{0x40, 0x40}, []uint64{1, 1}, []uint64{1, 1}, "listed twice"},
		{"duplicate-uncounted", 1, 1, []uint64{0x40, 0x80, 0x40}, []uint64{1}, []uint64{1}, "listed twice"},
		{"missed-over-occ", 1, 2, []uint64{0x40}, []uint64{1}, []uint64{2}, "missed 2 of 1"},
		{"occ-total", 3, 1, []uint64{0x40, 0x80}, []uint64{1, 1}, []uint64{1, 0}, "sum to"},
		{"miss-total", 2, 2, []uint64{0x40, 0x80}, []uint64{1, 1}, []uint64{1, 0}, "sum to"},
		{"rows-past-ips", 2, 0, []uint64{0x40}, []uint64{1, 1}, []uint64{0, 0}, "stats rows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := simcellV1(t, 100, tc.cond, tc.miss, tc.ips, tc.occ, tc.missed, smallGshare().(bp.Checkpointer))
			for _, cfg := range []Config{{}, {metricsOnly: true}} {
				loop := newRunLoop(cfg)
				err := restoreCellState(state, loop, smallGshare())
				loop.release()
				if !errors.Is(err, faults.ErrCorrupt) || !strings.Contains(err.Error(), tc.wantMessageSubstr) {
					t.Fatalf("metrics-only %v: restore = %v, want a corrupt error mentioning %q", cfg.metricsOnly, err, tc.wantMessageSubstr)
				}
			}
		})
	}
}

func fixtureEvents(t *testing.T) []bp.Event {
	t.Helper()
	return specEvents(t, tracegen.Spec{
		Name: "simcell-v1", Seed: 7, Branches: 20000,
		Kernels: []tracegen.KernelSpec{
			{Kind: tracegen.Biased}, {Kind: tracegen.Loop},
			{Kind: tracegen.Correlated}, {Kind: tracegen.CallRet},
			{Kind: tracegen.Indirect},
		},
	})
}

// specEvents generates the events of spec.
func specEvents(tb testing.TB, spec tracegen.Spec) []bp.Event {
	tb.Helper()
	g, err := tracegen.New(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var evs []bp.Event
	for {
		ev, err := g.Read()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			tb.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

// records interns evs into a fresh table.
func records(t testing.TB, evs []bp.Event) ([]tracecache.Record, tracecache.View) {
	t.Helper()
	tab := tracecache.NewTable()
	recs, err := tab.Intern(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	return recs, tab.View()
}

// sliceStream hands out the records of events in batches of a fixed size.
type sliceStream struct {
	recs  []tracecache.Record
	view  tracecache.View
	batch int
}

// sliceOpener opens a sliceStream over evs, in batches of 1000, afresh on
// every call.
func sliceOpener(t testing.TB, evs []bp.Event) func() (batchStream, error) {
	return batchOpener(t, evs, 1000)
}

// batchOpener opens a sliceStream over evs, in batches of size, afresh on
// every call.
func batchOpener(t testing.TB, evs []bp.Event, size int) func() (batchStream, error) {
	recs, v := records(t, evs)
	return func() (batchStream, error) { return &sliceStream{recs, v, size}, nil }
}

func (s *sliceStream) next() ([]tracecache.Record, tracecache.View, error) {
	if len(s.recs) == 0 {
		return nil, tracecache.View{}, io.EOF
	}
	n := min(s.batch, len(s.recs))
	b := s.recs[:n]
	s.recs = s.recs[n:]
	return b, s.view, nil
}

func (s *sliceStream) close() {}

// resultJSONNoTime marshals res with the wall-clock field zeroed.
func resultJSONNoTime(t *testing.T, res *Result) []byte {
	t.Helper()
	res.Metrics.SimulationTime = 0
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// fixtureCkptEvents is the number of events the simcell-v1.ckpt fixture had
// consumed: eight batches of 1000 of fixtureEvents under fixtureCfg.
const fixtureCkptEvents = 8000

var fixtureCfg = Config{TraceName: "simcell-v1", WarmupInstructions: 20000}

// TestCellStateV1Fixture: testdata/simcell-v1.ckpt was written by the
// per-array encoder of an earlier branch table (a small gshare over the first
// 8000 events of fixtureEvents, 56 branches of which 41 counted). It must
// restore, re-encode to the same bytes, and resume to the result of an
// uninterrupted run — both directly and through a journalled cell.
func TestCellStateV1Fixture(t *testing.T) {
	want, err := os.ReadFile("testdata/simcell-v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	evs := fixtureEvents(t)

	loop := newRunLoop(fixtureCfg)
	p := smallGshare()
	if err := restoreCellState(want, loop, p); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if loop.hw != 56 || loop.counted(int(loop.hw)) != 41 {
		t.Errorf("restored %d branches, %d counted; want 56 and 41", loop.hw, loop.counted(int(loop.hw)))
	}
	got, err := encodeCellState(loop, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded checkpoint differs from the fixture (%d vs %d bytes)", len(got), len(want))
	}

	fresh, err := runCell(context.Background(), nil, sliceOpener(t, evs), smallGshare, fixtureCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := resultJSONNoTime(t, fresh)

	// Live encoding matches the fixture at the same point of a fresh run.
	live := newRunLoop(fixtureCfg)
	lp := smallGshare()
	recs, v := records(t, evs)
	for i := 0; i < fixtureCkptEvents; i += 1000 {
		live.process(recs[i:i+1000], 0, v, lp, new(prepared))
	}
	if enc, err := encodeCellState(live, lp); err != nil || !bytes.Equal(enc, want) {
		t.Errorf("live checkpoint at %d events differs from the fixture (err %v)", fixtureCkptEvents, err)
	}
	live.release()

	jnl, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if _, err := jnl.AppendCheckpoint(journal.CheckpointRecord{Key: "cell", Events: fixtureCkptEvents, State: want}); err != nil {
		t.Fatal(err)
	}
	var built int
	newP := func() bp.Predictor { built++; return smallGshare() }
	resumed, err := runCell(context.Background(), nil, sliceOpener(t, evs), newP, fixtureCfg, &cellJournal{j: jnl, key: "cell"})
	if err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Errorf("resume built %d predictors, want 1 (checkpoint accepted)", built)
	}
	if gotJSON := resultJSONNoTime(t, resumed); !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("resumed result differs from an uninterrupted run\nresumed: %s\nfresh:   %s", gotJSON, wantJSON)
	}
}

// TestRunCellDuplicateCheckpointRestartsClean: a journalled checkpoint that
// repeats an address is rejected and the cell reruns from the start, to the
// result of a run without a journal.
func TestRunCellDuplicateCheckpointRestartsClean(t *testing.T) {
	evs := fixtureEvents(t)
	fresh, err := runCell(context.Background(), nil, sliceOpener(t, evs), smallGshare, fixtureCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := resultJSONNoTime(t, fresh)

	state := simcellV1(t, 100, 2, 2, []uint64{0x40, 0x40}, []uint64{1, 1}, []uint64{1, 1}, smallGshare().(bp.Checkpointer))
	jnl, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if _, err := jnl.AppendCheckpoint(journal.CheckpointRecord{Key: "cell", Events: 2, State: state}); err != nil {
		t.Fatal(err)
	}
	var built int
	newP := func() bp.Predictor { built++; return smallGshare() }
	res, err := runCell(context.Background(), nil, sliceOpener(t, evs), newP, fixtureCfg, &cellJournal{j: jnl, key: "cell"})
	if err != nil {
		t.Fatalf("cell with a corrupt checkpoint: %v", err)
	}
	if built != 2 {
		t.Errorf("built %d predictors, want 2 (the corrupt checkpoint discarded)", built)
	}
	if gotJSON := resultJSONNoTime(t, res); !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("restarted cell differs from a clean run\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestSortByIP: the radix sort orders addresses like a comparison sort,
// whether they share their high bytes, span the whole range, or are few.
func TestSortByIP(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 8))
	for _, draw := range []func() uint64{
		func() uint64 { return 0x400000 + 4*r.Uint64N(1<<14) },
		func() uint64 { return 0x7f00_0000_0000 | r.Uint64N(1<<40) },
		r.Uint64,
	} {
		for _, n := range []int{0, 1, 2, 300, 5000} {
			seen := map[uint64]bool{}
			var ips []uint64
			for len(ips) < n {
				if ip := draw(); !seen[ip] {
					seen[ip] = true
					ips = append(ips, ip)
				}
			}
			got := sortByIP(ips)
			want := make([]uint32, n)
			for i := range want {
				want[i] = uint32(i)
			}
			slices.SortFunc(want, func(a, b uint32) int { return cmp.Compare(ips[a], ips[b]) })
			if !slices.Equal(got, want) {
				t.Fatalf("%d addresses: radix order differs from a comparison sort", n)
			}
		}
	}
}
