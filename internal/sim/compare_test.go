package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"testing"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/predictors/yags"
	"mbplib/internal/tracegen"
)

// compareOracle is the per-event comparison loop Compare ran before it
// joined runLoop: one Read per event, both predictors interleaved per
// branch, and its own warm-up, limit and per-branch accounting. It is kept
// as the reference Compare is tested against.
func compareOracle(r bp.Reader, p0, p1 bp.Predictor, cfg Config) (*CompareResult, error) {
	if p0 == nil || p1 == nil {
		return nil, ErrNilPredictor
	}
	start := time.Now()
	stats := &compareStats{index: make(map[uint64]int32, 1024)}
	var (
		instr        uint64
		condBranches uint64
		misses       [2]uint64
		exhausted    bool
		limit        uint64
	)
	if cfg.SimInstructions > 0 {
		limit = cfg.WarmupInstructions + cfg.SimInstructions
	}
	for {
		ev, err := r.Read()
		if err != nil {
			if err == io.EOF {
				exhausted = true
				break
			}
			return nil, err
		}
		instr += ev.InstrsSinceLastBranch + 1
		b := ev.Branch
		if b.Opcode.IsConditional() {
			miss0 := p0.Predict(b.IP) != b.Taken
			miss1 := p1.Predict(b.IP) != b.Taken
			if instr > cfg.WarmupInstructions {
				condBranches++
				if miss0 {
					misses[0]++
				}
				if miss1 {
					misses[1]++
				}
				stats.record(b.IP, miss0, miss1)
			}
			p0.Train(b)
			p1.Train(b)
		}
		p0.Track(b)
		p1.Track(b)
		if limit > 0 && instr >= limit {
			break
		}
	}

	simInstr := uint64(0)
	if instr > cfg.WarmupInstructions {
		simInstr = instr - cfg.WarmupInstructions
	}
	res := &CompareResult{
		Metadata: CompareMetadata{
			Simulator:              CompareName,
			Version:                Version,
			Trace:                  cfg.TraceName,
			WarmupInstr:            cfg.WarmupInstructions,
			SimulationInstr:        simInstr,
			ExhaustedTrace:         exhausted,
			NumConditionalBranches: condBranches,
			Predictor0:             predictorMetadata(p0),
			Predictor1:             predictorMetadata(p1),
		},
		SimulationTime: time.Since(start).Seconds(),
	}
	res.Metrics0 = oracleMetrics(misses[0], condBranches, simInstr)
	res.Metrics1 = oracleMetrics(misses[1], condBranches, simInstr)
	res.MostFailed = oracleMostFailed(stats, simInstr, cfg.MostFailedLimit)
	return res, nil
}

// compareStats tracks per-branch misses for both predictors at once.
type compareStats struct {
	index  map[uint64]int32
	ips    []uint64
	occ    []uint64
	missed [2][]uint64
}

func oracleMetrics(misses, cond, simInstr uint64) CompareMetrics {
	m := CompareMetrics{Mispredictions: misses}
	if simInstr > 0 {
		m.MPKI = float64(misses) / (float64(simInstr) / 1000)
	}
	if cond > 0 {
		m.Accuracy = 1 - float64(misses)/float64(cond)
	}
	return m
}

func (s *compareStats) record(ip uint64, miss0, miss1 bool) {
	i, ok := s.index[ip]
	if !ok {
		i = int32(len(s.ips))
		s.index[ip] = i
		s.ips = append(s.ips, ip)
		s.occ = append(s.occ, 0)
		s.missed[0] = append(s.missed[0], 0)
		s.missed[1] = append(s.missed[1], 0)
	}
	s.occ[i]++
	if miss0 {
		s.missed[0][i]++
	}
	if miss1 {
		s.missed[1][i]++
	}
}

// oracleMostFailed lists branches by descending |MPKI difference|. limit
// caps the report; 0 defaults to 20 entries.
func oracleMostFailed(s *compareStats, simInstr uint64, limit int) []CompareBranchReport {
	if simInstr == 0 || len(s.ips) == 0 {
		return nil
	}
	if limit <= 0 {
		limit = 20
	}
	type entry struct {
		i    int32
		diff int64
	}
	var entries []entry
	for i := range s.ips {
		d := int64(s.missed[1][i]) - int64(s.missed[0][i])
		if d != 0 {
			entries = append(entries, entry{int32(i), d})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		da, db := abs64(entries[a].diff), abs64(entries[b].diff)
		if da != db {
			return da > db
		}
		return s.ips[entries[a].i] < s.ips[entries[b].i]
	})
	if len(entries) > limit {
		entries = entries[:limit]
	}
	kilo := float64(simInstr) / 1000
	reports := make([]CompareBranchReport, 0, len(entries))
	for _, e := range entries {
		reports = append(reports, CompareBranchReport{
			IP:          s.ips[e.i],
			Occurrences: s.occ[e.i],
			MPKI0:       float64(s.missed[0][e.i]) / kilo,
			MPKI1:       float64(s.missed[1][e.i]) / kilo,
			MPKIDiff:    float64(e.diff) / kilo,
		})
	}
	return reports
}

// comparePredictors are the sides of the equivalence tests: a predictor
// with a native batch kernel, one without, and the first with its kernel
// stripped.
var comparePredictors = map[string]func() bp.Predictor{
	"gshare":        func() bp.Predictor { return gshare.New() },
	"yags":          func() bp.Predictor { return yags.New() },
	"gshare-scalar": func() bp.Predictor { return bp.ScalarOnly(gshare.New()) },
}

// comparePairs lists (p0, p1) by comparePredictors name. The last pair is
// two instances of one predictor model, so its most_failed report is empty.
var comparePairs = [][2]string{{"gshare", "yags"}, {"yags", "gshare-scalar"}, {"gshare-scalar", "gshare"}}

// compareTrace generates the equivalence trace and configurations whose
// warm-up and limit boundaries fall inside batches: the instruction counts
// are taken at conditional branches well inside the second and fourth
// batch.
func compareTrace(t *testing.T) ([]bp.Event, map[string]Config) {
	t.Helper()
	g, err := tracegen.New(tracegen.Spec{
		Name: "compare", Seed: 41, Branches: 20000,
		Kernels: []tracegen.KernelSpec{
			{Kind: tracegen.Biased}, {Kind: tracegen.Loop},
			{Kind: tracegen.Correlated}, {Kind: tracegen.CallRet},
			{Kind: tracegen.Indirect},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var evs []bp.Event
	for {
		ev, err := g.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	// instrAt is the instruction count at the end of the first conditional
	// branch from event n on, so a boundary there decides whether that
	// branch counts.
	instrAt := func(n int) uint64 {
		for !evs[n-1].Branch.Opcode.IsConditional() {
			n++
		}
		var instr uint64
		for _, ev := range evs[:n] {
			instr += ev.InstrsSinceLastBranch + 1
		}
		return instr
	}
	warm := instrAt(5000)
	return evs, map[string]Config{
		"whole":           {TraceName: "compare"},
		"warmup":          {TraceName: "compare", WarmupInstructions: warm},
		"limit":           {TraceName: "compare", SimInstructions: instrAt(13000)},
		"warmup+limit":    {TraceName: "compare", WarmupInstructions: warm, SimInstructions: instrAt(13000) - warm, MostFailedLimit: 5},
		"limit-in-warmup": {TraceName: "compare", WarmupInstructions: warm, SimInstructions: instrAt(5050) - warm},
	}
}

func compareJSON(t *testing.T, res *CompareResult) []byte {
	t.Helper()
	res.SimulationTime = 0
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCompareMatchesOracle: over kernel, non-kernel and kernel-stripped
// predictors, and warm-up and limit boundaries inside batches, Compare's
// JSON is byte-identical to the per-event oracle loop's.
func TestCompareMatchesOracle(t *testing.T) {
	// Simulated instructions but no conditional branch: most_failed is null.
	calls := []bp.Event{callEvent(0x10), callEvent(0x20), callEvent(0x10)}
	want, _ := compareOracle(&sliceReader{evs: calls}, &staticPredictor{}, &staticPredictor{}, Config{})
	got, err := Compare(&sliceReader{evs: calls}, &staticPredictor{}, &staticPredictor{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w, g := compareJSON(t, want), compareJSON(t, got); !bytes.Equal(w, g) {
		t.Errorf("calls only: Compare differs from the oracle\noracle:  %s\nCompare: %s", w, g)
	}

	evs, configs := compareTrace(t)
	for cname, cfg := range configs {
		for _, pair := range comparePairs {
			mk0, mk1 := comparePredictors[pair[0]], comparePredictors[pair[1]]
			want, err := compareOracle(&sliceReader{evs: evs}, mk0(), mk1(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Compare(&sliceReader{evs: evs}, mk0(), mk1(), cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", cname, pair, err)
			}
			if w, g := compareJSON(t, want), compareJSON(t, got); !bytes.Equal(w, g) {
				t.Errorf("%s %v: Compare differs from the oracle\noracle:  %s\nCompare: %s", cname, pair, w, g)
			}
		}
	}
}

// TestCompareMatchesRun: each side of a comparison reports what a Run of
// that predictor alone reports.
func TestCompareMatchesRun(t *testing.T) {
	evs, configs := compareTrace(t)
	for cname, cfg := range configs {
		for _, pair := range comparePairs {
			mk0, mk1 := comparePredictors[pair[0]], comparePredictors[pair[1]]
			res, err := Compare(&sliceReader{evs: evs}, mk0(), mk1(), cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", cname, pair, err)
			}
			for side, m := range []CompareMetrics{res.Metrics0, res.Metrics1} {
				run, err := Run(&sliceReader{evs: evs}, comparePredictors[pair[side]](), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := CompareMetrics{MPKI: run.Metrics.MPKI, Mispredictions: run.Metrics.Mispredictions, Accuracy: run.Metrics.Accuracy}
				if m != want {
					t.Errorf("%s %v side %d: metrics %+v, Run %+v", cname, pair, side, m, want)
				}
				md, rmd := res.Metadata, run.Metadata
				if md.SimulationInstr != rmd.SimulationInstr || md.NumConditionalBranches != rmd.NumConditionalBranches || md.ExhaustedTrace != rmd.ExhaustedTrace {
					t.Errorf("%s %v side %d: simulation_instr/num_conditional_branches/exhausted_trace = %d/%d/%v, Run %d/%d/%v",
						cname, pair, side, md.SimulationInstr, md.NumConditionalBranches, md.ExhaustedTrace,
						rmd.SimulationInstr, rmd.NumConditionalBranches, rmd.ExhaustedTrace)
				}
			}
		}
	}
}

func TestCompareBasics(t *testing.T) {
	var evs []bp.Event
	// Branch 0xA always taken, branch 0xB never taken.
	for i := 0; i < 100; i++ {
		evs = append(evs, condEvent(0xA, true, 4))
		evs = append(evs, condEvent(0xB, false, 4))
	}
	pTaken := &staticPredictor{taken: true}
	pNot := &staticPredictor{taken: false}
	res, err := Compare(&sliceReader{evs: evs}, pTaken, pNot, Config{TraceName: "cmp"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics0.Mispredictions != 100 || res.Metrics1.Mispredictions != 100 {
		t.Errorf("misses = %d/%d, want 100/100", res.Metrics0.Mispredictions, res.Metrics1.Mispredictions)
	}
	if res.Metrics0.Accuracy != 0.5 || res.Metrics1.Accuracy != 0.5 {
		t.Errorf("accuracy = %v/%v", res.Metrics0.Accuracy, res.Metrics1.Accuracy)
	}
	if res.Metadata.NumConditionalBranches != 200 {
		t.Errorf("conditional branches = %d", res.Metadata.NumConditionalBranches)
	}
	// Both predictors see every branch: train 200, track 200 each.
	if len(pTaken.trains) != 200 || len(pNot.trains) != 200 {
		t.Errorf("train counts %d/%d", len(pTaken.trains), len(pNot.trains))
	}
	// most_failed: 0xA is better under p0 (diff +100 for p1), 0xB better
	// under p1 (diff -100). Both listed.
	if len(res.MostFailed) != 2 {
		t.Fatalf("most_failed has %d entries, want 2", len(res.MostFailed))
	}
	for _, mf := range res.MostFailed {
		switch mf.IP {
		case 0xA:
			if mf.MPKIDiff <= 0 {
				t.Errorf("branch 0xA diff = %v, want positive (worse under predictor 1)", mf.MPKIDiff)
			}
		case 0xB:
			if mf.MPKIDiff >= 0 {
				t.Errorf("branch 0xB diff = %v, want negative", mf.MPKIDiff)
			}
		default:
			t.Errorf("unexpected branch %#x in most_failed", mf.IP)
		}
	}
}

func TestCompareEqualPredictorsNoDiffs(t *testing.T) {
	var evs []bp.Event
	for i := 0; i < 50; i++ {
		evs = append(evs, condEvent(0xA, i%2 == 0, 1))
	}
	res, err := Compare(&sliceReader{evs: evs}, &staticPredictor{taken: true}, &staticPredictor{taken: true}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics0.Mispredictions != res.Metrics1.Mispredictions {
		t.Errorf("identical predictors diverged")
	}
	if len(res.MostFailed) != 0 {
		t.Errorf("identical predictors produced diffs: %+v", res.MostFailed)
	}
}

func TestCompareNilPredictor(t *testing.T) {
	if _, err := Compare(&sliceReader{}, nil, &staticPredictor{}, Config{}); err != ErrNilPredictor {
		t.Errorf("err = %v, want ErrNilPredictor", err)
	}
}

func TestCompareLimitAndWarmup(t *testing.T) {
	var evs []bp.Event
	for i := 0; i < 100; i++ {
		evs = append(evs, condEvent(uint64(i%10+1), false, 9))
	}
	res, err := Compare(&sliceReader{evs: evs}, &staticPredictor{taken: true}, &staticPredictor{taken: false},
		Config{WarmupInstructions: 100, SimInstructions: 400, MostFailedLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metadata.SimulationInstr != 400 {
		t.Errorf("simulation instructions = %d, want 400", res.Metadata.SimulationInstr)
	}
	if res.Metadata.ExhaustedTrace {
		t.Errorf("exhausted_trace = true for limited run")
	}
	if res.Metrics0.Mispredictions != 40 || res.Metrics1.Mispredictions != 0 {
		t.Errorf("misses = %d/%d, want 40/0", res.Metrics0.Mispredictions, res.Metrics1.Mispredictions)
	}
	if len(res.MostFailed) > 2 {
		t.Errorf("most_failed has %d entries, limit 2", len(res.MostFailed))
	}
}

func TestCompareJSON(t *testing.T) {
	evs := []bp.Event{condEvent(1, true, 0)}
	res, err := Compare(&sliceReader{evs: evs},
		&describedPredictor{staticPredictor{taken: true}},
		&describedPredictor{staticPredictor{taken: false}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var generic map[string]any
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	meta := generic["metadata"].(map[string]any)
	if meta["predictor_0"] == nil || meta["predictor_1"] == nil {
		t.Errorf("component descriptions missing from metadata")
	}
}
