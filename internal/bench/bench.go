// Package bench regenerates the tables of the MBPlib paper's evaluation
// (§VII): trace-set size reduction (Table I), simulation time of the
// library against the CBP5 framework and the ChampSim-style cycle-level
// model (Table III), and the effect of the compression method alone on the
// framework (Table IV). It is shared by the mbpbench command and the
// repository's testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mbplib/internal/bt9"
	"mbplib/internal/cbp5"
	"mbplib/internal/compress"
	"mbplib/internal/cst"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
	"mbplib/internal/uarch"
)

// TableIIIPredictors lists the predictors of Table III, in the paper's
// order, as registry specs.
var TableIIIPredictors = []struct {
	Label string
	Spec  string
}{
	{"Bimodal", "bimodal"},
	{"Two-Level", "twolevel:variant=GAs"},
	{"GShare", "gshare"},
	{"Tournament", "tournament"},
	{"2bc-gskew", "gskew"},
	{"Hashed Perc.", "perceptron"},
	{"TAGE", "tage"},
	{"BATAGE", "batage"},
}

// TraceSet is a suite of synthetic traces materialised on disk in the
// formats the experiments need.
type TraceSet struct {
	Suite string
	Specs []tracegen.Spec
	// Per-spec file paths (empty when the format was not requested).
	SBBT     []string // .sbbt.mlz — the MBPlib distribution format
	SBBTMLZS []string // .sbbt.mlzs — packet-aligned chunked container
	SBBTGz   []string // .sbbt.gz — gzip SBBT, where decompression dominates
	BT9Gz    []string // .bt9.gz — the original CBP5 distribution format
	BT9MLZ   []string // .bt9.mlz — the recompressed traces of Table IV
	CSTGz    []string // .cst.gz — ChampSim-style full-instruction traces
}

// Formats selects which trace files PrepareSuite materialises.
type Formats struct {
	SBBT, SBBTMLZS, SBBTGz, BT9Gz, BT9MLZ, CSTGz bool
	// MLZSWorkers is the parallel-compression width for the SBBTMLZS format
	// (<= 1 compresses inline). Output bytes are identical at any width.
	MLZSWorkers int
}

// PrepareSuite generates the named suite at the given scale and writes the
// requested formats under dir. Generation is deterministic, so repeated
// calls produce identical files.
func PrepareSuite(dir, suite string, scale uint64, formats Formats) (*TraceSet, error) {
	specs, err := tracegen.Suite(suite, scale)
	if err != nil {
		return nil, err
	}
	ts := &TraceSet{Suite: suite, Specs: specs}
	for _, spec := range specs {
		if formats.SBBT {
			path := filepath.Join(dir, spec.Name+".sbbt.mlz")
			if err := writeSBBTFile(path, spec); err != nil {
				return nil, err
			}
			ts.SBBT = append(ts.SBBT, path)
		}
		if formats.SBBTMLZS {
			path := filepath.Join(dir, spec.Name+".sbbt.mlzs")
			if err := writeSBBTMLZSFile(path, spec, formats.MLZSWorkers); err != nil {
				return nil, err
			}
			ts.SBBTMLZS = append(ts.SBBTMLZS, path)
		}
		if formats.SBBTGz {
			path := filepath.Join(dir, spec.Name+".sbbt.gz")
			if err := writeSBBTFile(path, spec); err != nil {
				return nil, err
			}
			ts.SBBTGz = append(ts.SBBTGz, path)
		}
		if formats.BT9Gz {
			path := filepath.Join(dir, spec.Name+".bt9.gz")
			if err := writeBT9File(path, spec); err != nil {
				return nil, err
			}
			ts.BT9Gz = append(ts.BT9Gz, path)
		}
		if formats.BT9MLZ {
			path := filepath.Join(dir, spec.Name+".bt9.mlz")
			if err := writeBT9File(path, spec); err != nil {
				return nil, err
			}
			ts.BT9MLZ = append(ts.BT9MLZ, path)
		}
		if formats.CSTGz {
			path := filepath.Join(dir, spec.Name+".cst.gz")
			if err := WriteCSTFile(path, spec); err != nil {
				return nil, err
			}
			ts.CSTGz = append(ts.CSTGz, path)
		}
	}
	return ts, nil
}

// writeSBBTFile renders spec as a compressed SBBT trace at path.
func writeSBBTFile(path string, spec tracegen.Spec) error {
	instr, branches, err := tracegen.Totals(spec)
	if err != nil {
		return err
	}
	f, err := compress.CreateFile(path, compress.LevelBest)
	if err != nil {
		return err
	}
	w, err := sbbt.NewWriter(f, instr, branches)
	if err != nil {
		f.Close()
		return err
	}
	if err := tracegen.WriteSBBT(spec, w.Write); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSBBTMLZSFile renders spec as a chunked (MLZS) SBBT trace at
// path. Chunk boundaries are packet-aligned past the SBBT header, so every
// chunk holds whole packets.
func writeSBBTMLZSFile(path string, spec tracegen.Spec, workers int) error {
	instr, branches, err := tracegen.Totals(spec)
	if err != nil {
		return err
	}
	f, err := compress.CreateMLZSFile(path, compress.MLZSOptions{
		Level:       compress.LevelBest,
		Workers:     workers,
		Align:       sbbt.PacketSize,
		AlignOffset: sbbt.HeaderSize,
	})
	if err != nil {
		return err
	}
	w, err := sbbt.NewWriter(f, instr, branches)
	if err != nil {
		f.Close()
		return err
	}
	if err := tracegen.WriteSBBT(spec, w.Write); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBT9File renders spec as a compressed BT9 text trace at path.
func writeBT9File(path string, spec tracegen.Spec) error {
	f, err := compress.CreateFile(path, compress.LevelBest)
	if err != nil {
		return err
	}
	w := bt9.NewWriter(f)
	if err := tracegen.WriteSBBT(spec, w.Write); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCSTFile renders spec as a compressed ChampSim-style trace at path.
func WriteCSTFile(path string, spec tracegen.Spec) error {
	total, err := tracegen.InstrTotals(spec)
	if err != nil {
		return err
	}
	f, err := compress.CreateFile(path, compress.LevelBest)
	if err != nil {
		return err
	}
	w, err := cst.NewWriter(f, total)
	if err != nil {
		f.Close()
		return err
	}
	ig, err := tracegen.NewInstrGenerator(spec)
	if err != nil {
		f.Close()
		return err
	}
	var in cst.Instruction
	for {
		err := ig.Read(&in)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return err
		}
		if err := w.Write(&in); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunSBBT opens an SBBT trace file and simulates predictor spec over it,
// returning the result. It is the MBPlib side of every timing comparison:
// the measured time includes decompression and trace decoding, as in the
// paper's methodology.
func RunSBBT(path, predictorSpec string, cfg sim.Config) (*sim.Result, error) {
	p, err := registry.New(predictorSpec)
	if err != nil {
		return nil, err
	}
	f, err := compress.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := sbbt.NewReader(f)
	if err != nil {
		return nil, err
	}
	if cfg.TraceName == "" {
		cfg.TraceName = path
	}
	return sim.Run(r, p, cfg)
}

// RunCBP5 runs the framework baseline over a BT9 trace file.
func RunCBP5(path, predictorSpec string) (*cbp5.Results, error) {
	p, err := registry.New(predictorSpec)
	if err != nil {
		return nil, err
	}
	return cbp5.RunTrace(path, cbp5.Adapter{P: p})
}

// RunChampSim runs the cycle-level model over a CST trace file with the
// default (Ice Lake-like) configuration.
func RunChampSim(path, predictorSpec string, maxInstr uint64) (*uarch.Stats, error) {
	return RunChampSimCfg(path, predictorSpec, uarch.DefaultConfig(), maxInstr)
}

// RunChampSimCfg is RunChampSim with an explicit core configuration.
func RunChampSimCfg(path, predictorSpec string, cfg uarch.Config, maxInstr uint64) (*uarch.Stats, error) {
	p, err := registry.New(predictorSpec)
	if err != nil {
		return nil, err
	}
	f, err := compress.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := cst.NewReader(f)
	if err != nil {
		return nil, err
	}
	return uarch.Run(r, p, cfg, maxInstr)
}

// dirSize sums the on-disk sizes of the given files.
func dirSize(paths []string) (int64, error) {
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// SizeRow is one row of Table I.
type SizeRow struct {
	Set             string
	NumTraces       int
	OriginalBytes   int64 // the set in its original distribution format
	TranslatedBytes int64 // the same traces translated to SBBT
	Ratio           float64
}

// TableI regenerates Table I: the size of each trace set in its original
// distribution format (BT9+gzip for the CBP5 sets, ChampSim-style
// full-instruction records+gzip for DPC3) against the SBBT translation
// compressed with the suite's modern compressor.
func TableI(dir string, scale uint64) ([]SizeRow, error) {
	var rows []SizeRow
	for _, suite := range []struct {
		name string
		cst  bool
	}{
		{"cbp5-train", false},
		{"cbp5-eval", false},
		{"dpc3", true},
	} {
		formats := Formats{SBBT: true, BT9Gz: !suite.cst, CSTGz: suite.cst}
		ts, err := PrepareSuite(dir, suite.name, scale, formats)
		if err != nil {
			return nil, err
		}
		orig := ts.BT9Gz
		if suite.cst {
			orig = ts.CSTGz
		}
		origSize, err := dirSize(orig)
		if err != nil {
			return nil, err
		}
		newSize, err := dirSize(ts.SBBT)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SizeRow{
			Set:             suite.name,
			NumTraces:       len(ts.Specs),
			OriginalBytes:   origSize,
			TranslatedBytes: newSize,
			Ratio:           float64(origSize) / float64(newSize),
		})
	}
	return rows, nil
}

// Timing summarises per-trace wall times the way Table III reports them.
type Timing struct {
	Slowest, Average, Fastest time.Duration
}

func summarize(times []time.Duration) Timing {
	if len(times) == 0 {
		return Timing{}
	}
	t := Timing{Slowest: times[0], Fastest: times[0]}
	var sum time.Duration
	for _, d := range times {
		if d > t.Slowest {
			t.Slowest = d
		}
		if d < t.Fastest {
			t.Fastest = d
		}
		sum += d
	}
	t.Average = sum / time.Duration(len(times))
	return t
}

// TimingRow is one predictor row of Table III (top) or Table IV.
type TimingRow struct {
	Predictor string
	Baseline  Timing // CBP5 framework (or CBP5+gzip in Table IV)
	MBPlib    Timing // this library (or CBP5+MLZ in Table IV)
	// Speedups per statistic: Baseline/MBPlib.
	SpeedupSlowest, SpeedupAverage, SpeedupFastest float64
}

func speedups(r *TimingRow) {
	div := func(a, b time.Duration) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.SpeedupSlowest = div(r.Baseline.Slowest, r.MBPlib.Slowest)
	r.SpeedupAverage = div(r.Baseline.Average, r.MBPlib.Average)
	r.SpeedupFastest = div(r.Baseline.Fastest, r.MBPlib.Fastest)
}

// TableIIITop regenerates the upper half of Table III: per predictor, the
// per-trace wall time of the CBP5 framework over the BT9 traces against
// this library over the SBBT traces, with the same predictor code on both
// sides (via the cbp5.Adapter).
func TableIIITop(ts *TraceSet) ([]TimingRow, error) { return tableIIITop(ts, 1) }

// tableIIITop is TableIIITop with each per-trace timing the fastest of
// rounds runs.
func tableIIITop(ts *TraceSet, rounds int) ([]TimingRow, error) {
	if len(ts.BT9Gz) == 0 || len(ts.SBBT) == 0 {
		return nil, fmt.Errorf("bench: trace set lacks BT9Gz or SBBT files")
	}
	var rows []TimingRow
	for _, pred := range TableIIIPredictors {
		row := TimingRow{Predictor: pred.Label}
		var base, lib []time.Duration
		for i := range ts.Specs {
			d, err := bestOf(rounds, func() error {
				_, err := RunCBP5(ts.BT9Gz[i], pred.Spec)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: cbp5 %s on %s: %w", pred.Label, ts.Specs[i].Name, err)
			}
			base = append(base, d)

			d, err = bestOf(rounds, func() error {
				_, err := RunSBBT(ts.SBBT[i], pred.Spec, sim.Config{})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: sim %s on %s: %w", pred.Label, ts.Specs[i].Name, err)
			}
			lib = append(lib, d)
		}
		row.Baseline = summarize(base)
		row.MBPlib = summarize(lib)
		speedups(&row)
		rows = append(rows, row)
	}
	return rows, nil
}

// bestOf returns the wall time of the fastest of rounds (at least one)
// calls of run.
func bestOf(rounds int, run func() error) (time.Duration, error) {
	var best time.Duration
	for r := 0; r < max(rounds, 1); r++ {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// TableIIIBottom regenerates the lower half of Table III: the cycle-level
// ChampSim-style model against this library, for GShare and BATAGE, over
// the first maxInstr instructions of each trace (the paper uses 100M; scale
// accordingly).
func TableIIIBottom(ts *TraceSet, maxInstr uint64) ([]TimingRow, error) {
	if len(ts.CSTGz) == 0 || len(ts.SBBT) == 0 {
		return nil, fmt.Errorf("bench: trace set lacks CSTGz or SBBT files")
	}
	var rows []TimingRow
	// Per the paper's methodology (§VII-A), GShare runs with the 8K BTB +
	// 4K GShare-like indirect predictor and BATAGE with the 64 kB ITTAGE.
	for _, pred := range []struct{ Label, Spec, Indirect string }{
		{"GShare", "gshare", "gshare"},
		{"BATAGE", "batage", "ittage"},
	} {
		cfg := uarch.DefaultConfig()
		cfg.IndirectKind = pred.Indirect
		row := TimingRow{Predictor: pred.Label}
		var base, lib []time.Duration
		for i := range ts.Specs {
			start := time.Now()
			if _, err := RunChampSimCfg(ts.CSTGz[i], pred.Spec, cfg, maxInstr); err != nil {
				return nil, fmt.Errorf("bench: champsim %s on %s: %w", pred.Label, ts.Specs[i].Name, err)
			}
			base = append(base, time.Since(start))

			start = time.Now()
			if _, err := RunSBBT(ts.SBBT[i], pred.Spec, sim.Config{SimInstructions: maxInstr}); err != nil {
				return nil, fmt.Errorf("bench: sim %s on %s: %w", pred.Label, ts.Specs[i].Name, err)
			}
			lib = append(lib, time.Since(start))
		}
		row.Baseline = summarize(base)
		row.MBPlib = summarize(lib)
		speedups(&row)
		rows = append(rows, row)
	}
	return rows, nil
}

// TableIV regenerates Table IV: the CBP5 framework reading gzip-compressed
// traces against the same framework reading traces recompressed with the
// modern compressor, isolating how much of MBPlib's speedup comes from the
// compression method alone.
func TableIV(ts *TraceSet) ([]TimingRow, error) { return tableIV(ts, 1) }

// tableIV is TableIV with each per-trace timing the fastest of rounds runs.
func tableIV(ts *TraceSet, rounds int) ([]TimingRow, error) {
	if len(ts.BT9Gz) == 0 || len(ts.BT9MLZ) == 0 {
		return nil, fmt.Errorf("bench: trace set lacks BT9Gz or BT9MLZ files")
	}
	var rows []TimingRow
	for _, pred := range TableIIIPredictors {
		row := TimingRow{Predictor: pred.Label}
		var gz, mlz []time.Duration
		for i := range ts.Specs {
			d, err := bestOf(rounds, func() error {
				_, err := RunCBP5(ts.BT9Gz[i], pred.Spec)
				return err
			})
			if err != nil {
				return nil, err
			}
			gz = append(gz, d)

			d, err = bestOf(rounds, func() error {
				_, err := RunCBP5(ts.BT9MLZ[i], pred.Spec)
				return err
			})
			if err != nil {
				return nil, err
			}
			mlz = append(mlz, d)
		}
		row.Baseline = summarize(gz)
		row.MBPlib = summarize(mlz)
		speedups(&row)
		rows = append(rows, row)
	}
	return rows, nil
}
