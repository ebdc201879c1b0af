package sim

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"mbplib/internal/bp"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sim/tracecache"
)

// genBranchStream draws n events over a pool of addresses with locality:
// conditional branches, and indirect jumps with several targets each, at
// gaps over the whole SBBT range.
func genBranchStream(r *rand.Rand, n int) []bp.Event {
	ips := make([]uint64, 1+r.IntN(n/4+1))
	for i := range ips {
		ips[i] = 0x400000 + uint64(i)*0x40 + uint64(r.IntN(8))*0x100000
	}
	evs := make([]bp.Event, n)
	for i := range evs {
		k := r.IntN(r.IntN(len(ips)) + 1)
		b := bp.Branch{IP: ips[k], Target: ips[k] + 0x20, Opcode: bp.OpCondJump, Taken: r.IntN(2) == 0}
		if k%5 == 4 {
			b = bp.Branch{IP: ips[k], Target: 0x800000 + uint64(r.IntN(6))*0x100, Opcode: bp.OpIndJump, Taken: true}
		}
		evs[i] = bp.Event{Branch: b, InstrsSinceLastBranch: r.Uint64N(bp.MaxInstrGap + 1)}
	}
	return evs
}

// firstSeen lists the addresses and the tuples of evs in order of first
// appearance.
func firstSeen(evs []bp.Event) (ips []uint64, tuples []tracecache.Static) {
	ipID := map[uint64]uint32{}
	seen := map[tracecache.Static]bool{}
	for _, ev := range evs {
		b := ev.Branch
		id, ok := ipID[b.IP]
		if !ok {
			id = uint32(len(ips))
			ipID[b.IP] = id
			ips = append(ips, b.IP)
		}
		if s := (tracecache.Static{IP: b.IP, Target: b.Target, Opcode: b.Opcode, IPID: id}); !seen[s] {
			seen[s] = true
			tuples = append(tuples, s)
		}
	}
	return ips, tuples
}

// TestStaticTableFirstSeenOrder: concurrent cells read two generated
// traces in turns through a cache that holds one of them at a time, or
// none, so entries are evicted, reloaded and turned away while other cells
// load. Every cell replays exactly the events and meets tuple and IP ids in
// counting order, and every entry a cell replays owns a table in first-seen
// order: each entry has one loader.
func TestStaticTableFirstSeenOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 24))
	var evictions, tooBig uint64
	for round := 0; round < 12; round++ {
		var srcs [2]TraceSource
		var traces [2][]bp.Event
		var size [2]int64
		for i := range traces {
			evs := genBranchStream(r, 500+r.IntN(6000))
			tab := tracecache.NewTable()
			if _, err := tab.Intern(nil, evs); err != nil {
				t.Fatal(err)
			}
			traces[i], size[i] = evs, int64(len(evs))*int64(unsafe.Sizeof(tracecache.Record{}))+tab.Size()
			srcs[i] = TraceSource{Name: fmt.Sprintf("trace-%d-%d", round, i),
				Open: func() (bp.Reader, io.Closer, error) { return &sliceReader{evs: evs}, nil, nil }}
		}
		// One trace fits, not both; every third round, neither.
		budget := max(size[0], size[1]) + 512
		if round%3 == 2 {
			budget = min(size[0], size[1]) / 2
		}
		cache := tracecache.New(budget)

		var wg sync.WaitGroup
		for cell := 0; cell < 4; cell++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range []int{cell % 2, 1 - cell%2, cell % 2} {
					if err := replayInOrder(cache, srcs[i], traces[i]); err != nil {
						t.Errorf("round %d cell %d, %s: %v", round, cell, srcs[i].Name, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		st := cache.Stats()
		if st.BytesUsed > budget {
			t.Errorf("round %d: %d bytes resident, budget %d", round, st.BytesUsed, budget)
		}
		evictions += st.Evictions
		tooBig += st.TooBig
	}
	if evictions == 0 || tooBig == 0 {
		t.Errorf("%d evictions and %d turned-away traces over all rounds; the budget put no pressure on the cache", evictions, tooBig)
	}
}

// replayInOrder reads src through cache and checks that it replays evs,
// that tuple and IP ids first appear in counting order, and that a cache
// entry it replays owns a table in first-seen order.
func replayInOrder(cache *tracecache.Cache, src TraceSource, evs []bp.Event) error {
	s, _, err := openStream(context.Background(), time.Time{}, nil, cache, src, Policy{}, nil)
	if err != nil {
		return err
	}
	defer s.close()
	pos, nextTuple, nextIP := 0, uint32(0), uint32(0)
	for {
		recs, v, err := s.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, rec := range recs {
			st := v.Statics[rec.ID]
			if rec.ID > nextTuple || st.IPID > nextIP {
				return fmt.Errorf("event %d: tuple %d and IP id %d, next new ones are %d and %d", pos, rec.ID, st.IPID, nextTuple, nextIP)
			}
			nextTuple, nextIP = max(nextTuple, rec.ID+1), max(nextIP, st.IPID+1)
			if got := (bp.Event{Branch: st.Branch(rec), InstrsSinceLastBranch: rec.Gap()}); got != evs[pos] {
				return fmt.Errorf("event %d: replayed %+v, want %+v", pos, got, evs[pos])
			}
			pos++
		}
	}
	if pos != len(evs) {
		return fmt.Errorf("%d events, want %d", pos, len(evs))
	}
	if cs, ok := s.(*cachedStream); ok {
		wantIPs, wantTuples := firstSeen(evs)
		if v := cs.entry.View(); !slices.Equal(v.IPs, wantIPs) || !slices.Equal(v.Statics, wantTuples) {
			return fmt.Errorf("the entry's table holds %d addresses and %d tuples out of first-seen order (want %d and %d)",
				len(v.IPs), len(v.Statics), len(wantIPs), len(wantTuples))
		}
	}
	return nil
}

// TestManyTargetsOneMostFailedRow: a conditional indirect branch jumping to
// many targets is many tuples but one static branch: it counts once in
// num_branch_instructions and is one most_failed row holding all its
// executions, on the kernel and the scalar path alike.
func TestManyTargetsOneMostFailedRow(t *testing.T) {
	const ip, n = 0x401000, 3000
	op := bp.NewOpcode(bp.Jump, true, true)
	evs := make([]bp.Event, n)
	for i := range evs {
		b := bp.Branch{IP: ip, Opcode: op}
		if i%3 != 0 { // taken, to one of many targets; not taken has none
			b.Taken, b.Target = true, 0x600000+uint64(i%97)*0x40
		}
		evs[i] = bp.Event{Branch: b, InstrsSinceLastBranch: 3}
	}
	for _, run := range []struct {
		name string
		fn   func(bp.Reader, bp.Predictor, Config) (*Result, error)
		p    bp.Predictor
	}{
		{"Run/scalar", Run, &staticPredictor{taken: false}},
		{"RunScalar", RunScalar, &staticPredictor{taken: false}},
		{"Run/kernel", Run, smallGshare()},
	} {
		res, err := run.fn(&sliceReader{evs: evs}, run.p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metadata.NumBranchInstructions != 1 || len(res.MostFailed) != 1 {
			t.Fatalf("%s: %d static branches, %d most_failed rows; want 1 and 1", run.name, res.Metadata.NumBranchInstructions, len(res.MostFailed))
		}
		row := res.MostFailed[0]
		if row.IP != ip || row.Occurrences != n || row.MPKI != res.Metrics.MPKI {
			t.Errorf("%s: row %+v, want %d occurrences holding the run's %v MPKI", run.name, row, n, res.Metrics.MPKI)
		}
		if _, static := run.p.(*staticPredictor); static && res.Metrics.Mispredictions != n*2/3 {
			t.Errorf("%s: %d mispredictions, want %d", run.name, res.Metrics.Mispredictions, n*2/3)
		}
	}
}

// TestRunCellStaleCheckpointRestartsClean: a journalled checkpoint that is
// well formed but names other branches than the trace's first ones is
// found out once its prefix is skipped, and the cell reruns from the start
// on a fresh stream, to the result of a run without a journal.
func TestRunCellStaleCheckpointRestartsClean(t *testing.T) {
	evs := fixtureEvents(t)
	fresh, err := runCell(context.Background(), nil, sliceOpener(t, evs), smallGshare, fixtureCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := resultJSONNoTime(t, fresh)

	for _, tc := range []struct {
		name   string
		events uint64
		ips    []uint64
	}{
		{"foreign-address", 2, []uint64{0x40}},
		{"too-few-addresses", 1500, []uint64{evs[0].Branch.IP}},
		{"past-the-end", uint64(len(evs)) + 10, []uint64{evs[0].Branch.IP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			state := simcellV1(t, 100, 0, 0, tc.ips, nil, nil, smallGshare().(bp.Checkpointer))
			jnl, err := journal.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			if _, err := jnl.AppendCheckpoint(journal.CheckpointRecord{Key: "cell", Events: tc.events, State: state}); err != nil {
				t.Fatal(err)
			}
			var built, opened int
			newP := func() bp.Predictor { built++; return smallGshare() }
			open := sliceOpener(t, evs)
			counted := func() (batchStream, error) { opened++; return open() }
			res, err := runCell(context.Background(), nil, counted, newP, fixtureCfg, &cellJournal{j: jnl, key: "cell"})
			if err != nil {
				t.Fatalf("cell with a stale checkpoint: %v", err)
			}
			if built != 2 || opened != 2 {
				t.Errorf("built %d predictors over %d streams, want 2 and 2 (the checkpoint restored, then dropped)", built, opened)
			}
			if gotJSON := resultJSONNoTime(t, res); string(gotJSON) != string(wantJSON) {
				t.Errorf("restarted cell differs from a clean run\ngot:  %s\nwant: %s", gotJSON, wantJSON)
			}
		})
	}
}

// TestSweepParallelTraceGroups: a sweep runs trace by trace, each trace's
// predictors that are not yet on record in one group, or in
// ceil(workers / traces) contiguous groups when there are fewer traces
// than workers, never in empty ones.
func TestSweepParallelTraceGroups(t *testing.T) {
	none := func(nP, nT int) [][]bool {
		skip := make([][]bool, nP)
		for pi := range skip {
			skip[pi] = make([]bool, nT)
		}
		return skip
	}
	skipped := none(2, 5)
	skipped[1][1] = true
	for _, tc := range []struct {
		name            string
		nP, nT, workers int
		skip            [][]bool
		want            []traceGroup
	}{
		{"one-per-trace", 2, 5, 2, skipped, []traceGroup{{0, []int{0, 1}}, {1, []int{0}}, {2, []int{0, 1}}, {3, []int{0, 1}}, {4, []int{0, 1}}}},
		{"one-trace-split", 12, 1, 2, none(12, 1), []traceGroup{{0, []int{0, 1, 2, 3, 4, 5}}, {0, []int{6, 7, 8, 9, 10, 11}}}},
		{"uneven-split", 3, 1, 2, none(3, 1), []traceGroup{{0, []int{0}}, {0, []int{1, 2}}}},
		{"three-traces-four-workers", 4, 3, 4, none(4, 3), []traceGroup{{0, []int{0, 1}}, {0, []int{2, 3}}, {1, []int{0, 1}}, {1, []int{2, 3}}, {2, []int{0, 1}}, {2, []int{2, 3}}}},
		{"fewer-predictors-than-parts", 1, 1, 4, none(1, 1), []traceGroup{{0, []int{0}}}},
		{"all-on-record", 2, 1, 4, [][]bool{{true}, {true}}, nil},
		{"no-traces", 2, 0, 4, none(2, 0), nil},
	} {
		got := traceGroups(tc.nP, tc.nT, tc.workers, tc.skip)
		if !slices.EqualFunc(got, tc.want, func(a, b traceGroup) bool { return a.ti == b.ti && slices.Equal(a.pis, b.pis) }) {
			t.Errorf("%s: groups %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunLimitWithWideGaps: BT9 gaps are not held to SBBT's 12 bits, and a
// record keeps them whole. A batch of wide gaps that crosses the
// instruction limit must stop at the limit, as the scalar loop does, not
// run whole through the fast path on the strength of a 12-bit bound.
func TestRunLimitWithWideGaps(t *testing.T) {
	evs := make([]bp.Event, 3*tracecache.BatchEvents)
	for i := range evs {
		evs[i] = bp.Event{
			Branch:                bp.Branch{IP: 0x400000 + uint64(i%64)*4, Target: 0x500000, Opcode: bp.OpCondJump, Taken: i%3 == 0},
			InstrsSinceLastBranch: 100_000,
		}
	}
	cfg := Config{SimInstructions: 20_000_000}
	want, err := RunScalar(&sliceReader{evs: evs}, smallGshare(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(&sliceReader{evs: evs}, smallGshare(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := resultJSONNoTime(t, want), resultJSONNoTime(t, got); string(w) != string(g) {
		t.Errorf("Run differs from RunScalar at a limit inside a batch of wide gaps\nRun:       %s\nRunScalar: %s", g, w)
	}
	if got.Metadata.SimulationInstr > cfg.SimInstructions+100_001 {
		t.Errorf("simulated %d instructions past a limit of %d", got.Metadata.SimulationInstr, cfg.SimInstructions)
	}
}

// TestCachePathsCountLikeRun: the per-branch counters of a cell read
// through the cache — a trace loaded into an entry, replayed from it, or
// turned away — are Run's. Asked for the whole report, such a cell returns
// Run's result byte for byte. Sweep cells build no report, so this is where
// the counters of those paths (which checkpoints store) are checked.
func TestCachePathsCountLikeRun(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 25))
	evs := genBranchStream(r, 20000)
	cfg := Config{TraceName: "t", WarmupInstructions: 40_000}
	want, err := Run(&sliceReader{evs: evs}, smallGshare(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.MostFailed) < 100 {
		t.Fatalf("Run reports %d most_failed rows, want a long report", len(want.MostFailed))
	}
	wantJSON := resultJSONNoTime(t, want)
	src := TraceSource{Name: "t", Open: func() (bp.Reader, io.Closer, error) { return &sliceReader{evs: evs}, nil, nil }}
	shared := NewCache(0)
	for _, tc := range []struct {
		name  string
		cache *tracecache.Cache
	}{
		{"loaded", shared},
		{"replayed", shared},
		{"turned-away", NewCache(64)},
	} {
		open := func() (batchStream, error) {
			s, _, err := openStream(context.Background(), time.Time{}, nil, tc.cache, src, Policy{}, nil)
			return s, err
		}
		res, err := runCell(context.Background(), nil, open, smallGshare, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultJSONNoTime(t, res); string(got) != string(wantJSON) {
			t.Errorf("%s: result differs from Run's\ngot:  %.300s\nwant: %.300s", tc.name, got, wantJSON)
		}
	}
	if st := shared.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("shared cache %+v, want one load and one replay", st)
	}
}

// TestStaticTableReportWhileProducerInterns: a run that stops at its
// instruction limit builds its most_failed report, sorting the addresses of
// the view it was handed, while the prefetch producer is still interning
// the batches after it into the same table: every batch of the trace brings
// addresses of its own, so the producer appends on each one. The report
// must equal the scalar reference's byte for byte; under -race the sort and
// the appends must not touch the same memory.
func TestStaticTableReportWhileProducerInterns(t *testing.T) {
	const batches, perBatch = 10, 300 // addresses per batch
	r := rand.New(rand.NewPCG(7, 30))
	evs := make([]bp.Event, batches*tracecache.BatchEvents)
	for i := range evs {
		// Batch b draws from its own addresses, below those of the batches
		// before it, so the report's sort has work to do.
		b := i / tracecache.BatchEvents
		ip := 0x400000 + uint64((batches-b)*perBatch+r.IntN(perBatch))*4
		evs[i] = bp.Event{
			Branch:                bp.Branch{IP: ip, Target: ip + 0x40, Opcode: bp.OpCondJump, Taken: r.IntN(3) != 0},
			InstrsSinceLastBranch: r.Uint64N(8),
		}
	}
	// Stop a few records into the fourth batch: the consumer builds the
	// report right after taking it, while the producer, handed the buffer
	// of the batch before, reads and interns the fifth.
	const warmup = 1000
	limit := uint64(0)
	for _, ev := range evs[:3*tracecache.BatchEvents+10] {
		limit += ev.InstrsSinceLastBranch + 1
	}
	cfg := Config{TraceName: "t", WarmupInstructions: warmup, SimInstructions: limit - warmup}
	want, err := RunScalar(&sliceReader{evs: evs}, smallGshare(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Metadata.ExhaustedTrace || len(want.MostFailed) < 100 {
		t.Fatalf("reference: exhausted %v, %d most_failed rows; want a mid-trace stop and a long report", want.Metadata.ExhaustedTrace, len(want.MostFailed))
	}
	wantJSON := resultJSONNoTime(t, want)
	got, err := Run(&sliceReader{evs: evs}, smallGshare(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON := resultJSONNoTime(t, got); string(gotJSON) != string(wantJSON) {
		t.Errorf("Run differs from RunScalar\ngot:  %.300s\nwant: %.300s", gotJSON, wantJSON)
	}
}
