package bench

import (
	"strings"
	"testing"
	"time"

	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

// smallScale keeps the harness tests fast; the experiment shapes hold at
// any scale.
const smallScale = 4000

// shapeRounds is how many times the timing-shape tests run each timed
// simulation, keeping the fastest: a single millisecond-scale timing on a
// shared machine is often inflated by another process, which flips the
// ratios the tests assert.
const shapeRounds = 5

func TestPrepareSuiteFormats(t *testing.T) {
	dir := t.TempDir()
	ts, err := PrepareSuite(dir, "dpc3", smallScale, Formats{SBBT: true, BT9Gz: true, BT9MLZ: true, CSTGz: true})
	if err != nil {
		t.Fatal(err)
	}
	n := len(ts.Specs)
	if n == 0 || len(ts.SBBT) != n || len(ts.BT9Gz) != n || len(ts.BT9MLZ) != n || len(ts.CSTGz) != n {
		t.Fatalf("path counts: specs=%d sbbt=%d bt9gz=%d bt9mlz=%d cstgz=%d",
			n, len(ts.SBBT), len(ts.BT9Gz), len(ts.BT9MLZ), len(ts.CSTGz))
	}
}

func TestRunSBBTAndCBP5Agree(t *testing.T) {
	dir := t.TempDir()
	ts, err := PrepareSuite(dir, "cbp5-train", smallScale, Formats{SBBT: true, BT9Gz: true})
	if err != nil {
		t.Fatal(err)
	}
	// §VII-C on files: both simulators over the same trace give identical
	// misprediction counts.
	libRes, err := RunSBBT(ts.SBBT[0], "gshare", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cbpRes, err := RunCBP5(ts.BT9Gz[0], "gshare")
	if err != nil {
		t.Fatal(err)
	}
	if libRes.Metrics.Mispredictions != cbpRes.Mispredictions {
		t.Errorf("mispredictions differ: lib %d, framework %d", libRes.Metrics.Mispredictions, cbpRes.Mispredictions)
	}
	if !libRes.Metadata.ExhaustedTrace {
		t.Errorf("trace not exhausted")
	}
}

func TestTableISizesAndShape(t *testing.T) {
	rows, err := TableI(t.TempDir(), smallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Shape notes (EXPERIMENTS.md): with both sides compressed by equally
	// modern compressors, BT9 and SBBT come out about even — matching the
	// paper's own BT9+zstd (504 MB) vs SBBT+zstd (769 MB) datapoint; the
	// 7.3× headline is against the much weaker 2016 gzip distribution.
	// What must hold here: CBP5 ratios in a sane band, and the DPC3 set —
	// whose original carries every instruction, not just branches —
	// shrinking by an order of magnitude or more.
	var train, dpc3 float64
	for _, r := range rows {
		switch r.Set {
		case "cbp5-train":
			train = r.Ratio
		case "dpc3":
			dpc3 = r.Ratio
		}
	}
	if train < 0.5 || train > 4 {
		t.Errorf("CBP5 ratio %.2f outside the plausible band", train)
	}
	if dpc3 < 10 {
		t.Errorf("DPC3 ratio %.1f, want >= 10 (paper: 42)", dpc3)
	}
	if dpc3 <= 4*train {
		t.Errorf("DPC3 ratio %.1f not far above CBP5 ratio %.1f", dpc3, train)
	}
	text := RenderTableI(rows)
	if !strings.Contains(text, "cbp5-train") || !strings.Contains(text, "×") {
		t.Errorf("rendering missing content:\n%s", text)
	}
}

func TestTableIIITopShape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("timing-shape assertion: race instrumentation skews the speedup ratios")
	}
	dir := t.TempDir()
	ts, err := PrepareSuite(dir, "cbp5-train", smallScale, Formats{SBBT: true, BT9Gz: true})
	if err != nil {
		t.Fatal(err)
	}
	// Use a subset of traces to keep the test quick.
	ts.Specs = ts.Specs[:3]
	ts.SBBT = ts.SBBT[:3]
	ts.BT9Gz = ts.BT9Gz[:3]
	rows, err := tableIIITop(ts, shapeRounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(TableIIIPredictors) {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]TimingRow{}
	for _, r := range rows {
		byName[r.Predictor] = r
		if r.MBPlib.Average <= 0 || r.Baseline.Average <= 0 {
			t.Errorf("%s: zero timing", r.Predictor)
		}
	}
	// The paper's shape: the library beats the framework clearly for the
	// simple predictors, and the gap narrows for the complex ones.
	if byName["Bimodal"].SpeedupAverage <= 1 {
		t.Errorf("bimodal speedup %.2f, want > 1", byName["Bimodal"].SpeedupAverage)
	}
	if byName["BATAGE"].SpeedupAverage >= byName["Bimodal"].SpeedupAverage {
		t.Errorf("BATAGE speedup %.2f not below bimodal %.2f",
			byName["BATAGE"].SpeedupAverage, byName["Bimodal"].SpeedupAverage)
	}
	text := RenderTimingRows(rows, "CBP5", "MBPlib")
	if !strings.Contains(text, "Bimodal") || !strings.Contains(text, "Slowest") {
		t.Errorf("rendering missing content:\n%s", text)
	}
}

func TestTableIIIBottomShape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("timing-shape assertion: race instrumentation skews the speedup ratios")
	}
	dir := t.TempDir()
	ts, err := PrepareSuite(dir, "dpc3", smallScale, Formats{SBBT: true, CSTGz: true})
	if err != nil {
		t.Fatal(err)
	}
	ts.Specs = ts.Specs[:2]
	ts.SBBT = ts.SBBT[:2]
	ts.CSTGz = ts.CSTGz[:2]
	rows, err := TableIIIBottom(ts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupAverage <= 1 {
			t.Errorf("%s: cycle-level model not slower than the library (speedup %.2f)", r.Predictor, r.SpeedupAverage)
		}
	}
	// ChampSim-style times are nearly predictor-independent: the two
	// baseline averages are within a small factor of each other.
	ratio := float64(rows[1].Baseline.Average) / float64(rows[0].Baseline.Average)
	if ratio < 0.5 || ratio > 3 {
		t.Errorf("cycle-level model time varies %.2f× between predictors", ratio)
	}
}

func TestTableIVShape(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("timing-shape assertion: race instrumentation skews the speedup ratios")
	}
	dir := t.TempDir()
	// Larger traces than the other harness tests: the assertion is a
	// timing ratio, and ~1 ms runs are too noisy when test packages run in
	// parallel.
	ts, err := PrepareSuite(dir, "cbp5-train", 5*smallScale, Formats{BT9Gz: true, BT9MLZ: true})
	if err != nil {
		t.Fatal(err)
	}
	ts.Specs = ts.Specs[:2]
	ts.BT9Gz = ts.BT9Gz[:2]
	ts.BT9MLZ = ts.BT9MLZ[:2]
	rows, err := tableIV(ts, shapeRounds)
	if err != nil {
		t.Fatal(err)
	}
	// The compression method alone contributes only a small factor
	// (1.02×–1.12× in the paper); the essential claim is the upper bound —
	// nowhere near the library's own speedup.
	for _, r := range rows {
		if r.SpeedupAverage < 0.3 || r.SpeedupAverage > 2 {
			t.Errorf("%s: compression-only speedup %.2f out of plausible band", r.Predictor, r.SpeedupAverage)
		}
	}
	text := RenderTableIV(rows)
	if !strings.Contains(text, "Gzip") {
		t.Errorf("rendering missing content:\n%s", text)
	}
}

func TestSummarize(t *testing.T) {
	times := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	tm := summarize(times)
	if tm.Slowest != 3*time.Second || tm.Fastest != time.Second || tm.Average != 2*time.Second {
		t.Errorf("summarize = %+v", tm)
	}
	if z := summarize(nil); z.Average != 0 {
		t.Errorf("empty summarize = %+v", z)
	}
}

func TestHumanUnits(t *testing.T) {
	if HumanBytes(5<<30) != "5.0 GB" || HumanBytes(512) != "512 B" {
		t.Errorf("HumanBytes wrong: %s %s", HumanBytes(5<<30), HumanBytes(512))
	}
	if HumanDuration(90*time.Second) != "1.50 min" {
		t.Errorf("HumanDuration wrong: %s", HumanDuration(90*time.Second))
	}
	if HumanDuration(2*time.Hour) != "2.00 h" {
		t.Errorf("HumanDuration wrong: %s", HumanDuration(2*time.Hour))
	}
}

// TestFileRoundTripFidelity checks that simulating from an SBBT file (with
// compression and decoding in the path) produces exactly the result of
// simulating the generator directly: the trace pipeline is lossless.
func TestFileRoundTripFidelity(t *testing.T) {
	dir := t.TempDir()
	ts, err := PrepareSuite(dir, "cbp5-train", smallScale, Formats{SBBT: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range ts.Specs[:4] {
		fromFile, err := RunSBBT(ts.SBBT[i], "tage", sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := tracegen.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := registry.New("tage")
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.Run(g, p, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if fromFile.Metrics.Mispredictions != direct.Metrics.Mispredictions ||
			fromFile.Metadata.NumConditionalBranches != direct.Metadata.NumConditionalBranches ||
			fromFile.Metadata.SimulationInstr != direct.Metadata.SimulationInstr {
			t.Errorf("%s: file path and direct path disagree: %+v vs %+v",
				spec.Name, fromFile.Metrics, direct.Metrics)
		}
	}
}
