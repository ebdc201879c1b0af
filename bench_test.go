// Benchmarks regenerating every table and figure of the MBPlib paper's
// evaluation (§VII). Each benchmark family maps to one artifact:
//
//	BenchmarkFig1HeaderCodec   — Fig. 1, SBBT header encode/decode
//	BenchmarkFig2PacketCodec   — Fig. 2, SBBT packet encode/decode
//	BenchmarkTableI            — Table I, trace-set size ratios (reported
//	                             as custom metrics, not time)
//	BenchmarkTableIIIMBPlib    — Table III, this library per predictor
//	BenchmarkTableIIICBP5      — Table III, the CBP5-framework baseline
//	BenchmarkTableIIIChampSim  — Table III bottom, the cycle-level model
//	BenchmarkTableIVCBP5       — Table IV, framework with gzip vs MLZ traces
//
// Times are per simulated trace; custom metrics report branches/s so rows
// compare directly with the paper's shape (who wins, by what factor).
// Run with: go test -bench=. -benchmem
package mbplib

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"mbplib/internal/bench"
	"mbplib/internal/bp"
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

// benchSpec is the reference workload: a SERVER-class trace, the kind the
// paper's Listing 1 uses.
var benchSpec = func() tracegen.Spec {
	specs, err := tracegen.Suite("cbp5-train", 100_000)
	if err != nil {
		panic(err)
	}
	for _, s := range specs {
		if s.Name == "SHORT_SERVER-1" {
			return s
		}
	}
	panic("SHORT_SERVER-1 missing from suite")
}()

// Lazily-built in-memory compressed traces shared by the benchmarks.
var (
	buildOnce sync.Once
	sbbtMLZ   []byte // SBBT + MLZ (the MBPlib distribution format)
	bt9Gz     []byte // BT9 + gzip (the CBP5 distribution format)
	bt9MLZ    []byte // BT9 + MLZ (Table IV)
	cstGz     []byte // ChampSim-style records + gzip
	cstSpec   tracegen.Spec
)

func buildTraces(b *testing.B) {
	b.Helper()
	buildOnce.Do(func() {
		instr, branches, err := tracegen.Totals(benchSpec)
		if err != nil {
			panic(err)
		}
		var raw bytes.Buffer
		w, err := sbbt.NewWriter(&raw, instr, branches)
		if err != nil {
			panic(err)
		}
		if err := tracegen.WriteSBBT(benchSpec, w.Write); err != nil {
			panic(err)
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		sbbtMLZ = compressBytes(raw.Bytes(), compress.FormatMLZ)

		raw.Reset()
		bw := bt9.NewWriter(&raw)
		if err := tracegen.WriteSBBT(benchSpec, bw.Write); err != nil {
			panic(err)
		}
		if err := bw.Close(); err != nil {
			panic(err)
		}
		bt9Gz = compressBytes(raw.Bytes(), compress.FormatGzip)
		bt9MLZ = compressBytes(raw.Bytes(), compress.FormatMLZ)

		// A smaller spec for the cycle-level model: it simulates every
		// instruction, so branch counts equivalent to the other rows would
		// dominate the whole benchmark run.
		cstSpec = benchSpec
		cstSpec.Branches = 20_000
		total, err := tracegen.InstrTotals(cstSpec)
		if err != nil {
			panic(err)
		}
		raw.Reset()
		cw, err := cst.NewWriter(&raw, total)
		if err != nil {
			panic(err)
		}
		ig, err := tracegen.NewInstrGenerator(cstSpec)
		if err != nil {
			panic(err)
		}
		var in cst.Instruction
		for ig.Read(&in) == nil {
			if err := cw.Write(&in); err != nil {
				panic(err)
			}
		}
		if err := cw.Close(); err != nil {
			panic(err)
		}
		cstGz = compressBytes(raw.Bytes(), compress.FormatGzip)
	})
}

func compressBytes(data []byte, format compress.Format) []byte {
	var buf bytes.Buffer
	w, err := compress.NewWriter(&buf, format, compress.LevelBest)
	if err != nil {
		panic(err)
	}
	if _, err := w.Write(data); err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BenchmarkFig1HeaderCodec covers the header layout of Fig. 1.
func BenchmarkFig1HeaderCodec(b *testing.B) {
	buf := make([]byte, 0, sbbt.HeaderSize)
	h := sbbt.NewHeader(1_000_000_000, 50_000_000)
	for i := 0; i < b.N; i++ {
		buf = h.AppendTo(buf[:0])
		if _, err := sbbt.ParseHeader(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2PacketCodec covers the packet layout of Fig. 2.
func BenchmarkFig2PacketCodec(b *testing.B) {
	ev := bp.Event{
		Branch:                bp.Branch{IP: 0x7fff_1234_5678, Target: 0x7fff_9abc_def0, Opcode: bp.OpCondJump, Taken: true},
		InstrsSinceLastBranch: 7,
	}
	buf := make([]byte, 0, sbbt.PacketSize)
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = sbbt.EncodePacket(buf[:0], ev)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sbbt.DecodePacket(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI reports the trace-set size ratios of Table I as custom
// metrics (the artifact is sizes, not time).
func BenchmarkTableI(b *testing.B) {
	dir := b.TempDir()
	var rows []bench.SizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.TableI(dir, 10_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Ratio, r.Set+"-size-ratio")
	}
}

// runMBPlib simulates one in-memory SBBT trace, the measured unit of the
// Table III MBPlib column.
func runMBPlib(b *testing.B, predictorSpec string) {
	buildTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	var branches uint64
	for i := 0; i < b.N; i++ {
		p, err := registry.New(predictorSpec)
		if err != nil {
			b.Fatal(err)
		}
		zr, err := compress.NewReader(bytes.NewReader(sbbtMLZ))
		if err != nil {
			b.Fatal(err)
		}
		r, err := sbbt.NewReader(zr)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(r, p, sim.Config{TraceName: benchSpec.Name})
		if err != nil {
			b.Fatal(err)
		}
		branches = res.Metadata.NumConditionalBranches
	}
	b.ReportMetric(float64(benchSpec.Branches)*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
	_ = branches
}

// runCBP5 simulates the same trace through the framework baseline.
func runCBP5(b *testing.B, predictorSpec string, trace []byte) {
	buildTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := registry.New(predictorSpec)
		if err != nil {
			b.Fatal(err)
		}
		zr, err := compress.NewReader(bytes.NewReader(trace))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cbp5.RunReader(zr, cbp5.Adapter{P: p}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchSpec.Branches)*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
}

// BenchmarkTableIIIMBPlib is the MBPlib column of Table III (top).
func BenchmarkTableIIIMBPlib(b *testing.B) {
	for _, pred := range bench.TableIIIPredictors {
		b.Run(pred.Label, func(b *testing.B) { runMBPlib(b, pred.Spec) })
	}
}

// BenchmarkTableIIICBP5 is the CBP5-framework column of Table III (top).
func BenchmarkTableIIICBP5(b *testing.B) {
	buildTraces(b) // bt9Gz must exist before the closures capture it
	for _, pred := range bench.TableIIIPredictors {
		b.Run(pred.Label, func(b *testing.B) { runCBP5(b, pred.Spec, bt9Gz) })
	}
}

// BenchmarkTableIIIChampSim is the ChampSim column of Table III (bottom):
// the cycle-level model over full-instruction traces, for the two
// predictors the paper measures there.
func BenchmarkTableIIIChampSim(b *testing.B) {
	for _, pred := range []struct{ label, spec string }{
		{"GShare", "gshare"},
		{"BATAGE", "batage"},
	} {
		b.Run(pred.label, func(b *testing.B) {
			buildTraces(b)
			b.ReportAllocs()
			b.ResetTimer()
			var instr uint64
			for i := 0; i < b.N; i++ {
				p, err := registry.New(pred.spec)
				if err != nil {
					b.Fatal(err)
				}
				zr, err := compress.NewReader(bytes.NewReader(cstGz))
				if err != nil {
					b.Fatal(err)
				}
				r, err := cst.NewReader(zr)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := uarch.Run(r, p, uarch.DefaultConfig(), 0)
				if err != nil {
					b.Fatal(err)
				}
				instr = stats.Instructions
			}
			b.ReportMetric(float64(instr)*float64(b.N)/b.Elapsed().Seconds(), "instructions/s")
		})
	}
}

// BenchmarkTableIVCBP5 is Table IV: the framework over gzip traces against
// the same framework over MLZ-recompressed traces.
func BenchmarkTableIVCBP5(b *testing.B) {
	buildTraces(b)
	b.Run("Gzip", func(b *testing.B) { runCBP5(b, "bimodal", bt9Gz) })
	b.Run("MLZ", func(b *testing.B) { runCBP5(b, "bimodal", bt9MLZ) })
}

// BenchmarkAblationMLZLevel isolates the MLZ design choice the suite makes
// for trace distribution (§IV: "a bigger compression factor did not make
// the decompression slower"): LevelFast vs LevelBest compression of the
// same SBBT trace, reporting the ratio alongside the time.
func BenchmarkAblationMLZLevel(b *testing.B) {
	buildTraces(b)
	zr, err := compress.NewReader(bytes.NewReader(sbbtMLZ))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range []struct {
		name string
		l    compress.Level
	}{{"Fast", compress.LevelFast}, {"Best", compress.LevelBest}} {
		b.Run(level.name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				w := compress.NewMLZWriter(&buf, level.l)
				if _, err := w.Write(raw); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				size = buf.Len()
			}
			b.SetBytes(int64(len(raw)))
			b.ReportMetric(float64(len(raw))/float64(size), "ratio")
		})
	}
}

// BenchmarkAblationMLZDecode measures decompression speed, the axis the
// suite optimises for (§IV chose zstd for decompression speed).
func BenchmarkAblationMLZDecode(b *testing.B) {
	buildTraces(b)
	var raw int64
	for i := 0; i < b.N; i++ {
		zr, err := compress.NewReader(bytes.NewReader(sbbtMLZ))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, zr)
		if err != nil {
			b.Fatal(err)
		}
		raw = n
	}
	b.SetBytes(raw)
}

// BenchmarkAblationChampSimPrefetchers quantifies what the uarch model's
// prefetchers buy, reporting IPC with and without them.
func BenchmarkAblationChampSimPrefetchers(b *testing.B) {
	for _, abl := range []struct {
		name    string
		disable bool
	}{{"On", false}, {"Off", true}} {
		b.Run(abl.name, func(b *testing.B) {
			buildTraces(b)
			cfg := uarch.DefaultConfig()
			cfg.DisablePrefetchers = abl.disable
			b.ResetTimer()
			var ipc float64
			for i := 0; i < b.N; i++ {
				p, err := registry.New("gshare")
				if err != nil {
					b.Fatal(err)
				}
				zr, err := compress.NewReader(bytes.NewReader(cstGz))
				if err != nil {
					b.Fatal(err)
				}
				r, err := cst.NewReader(zr)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := uarch.Run(r, p, cfg, 0)
				if err != nil {
					b.Fatal(err)
				}
				ipc = stats.IPC
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkPredictorsOnly measures the bare cost per branch of every
// Table III predictor, with trace decoding taken out of the loop — the
// predictor-code share of the simulation time the paper's Table III rows
// embed. Branches reach the predictor the way the simulator hands them
// over, through bp.SimulateBatch in 4096-event batches, so each row shows
// the native batch kernel where the predictor has one; its /scalar twin
// strips the kernel (bp.ScalarOnly) for comparison.
func BenchmarkPredictorsOnly(b *testing.B) {
	spec := benchSpec
	spec.Branches = 50_000
	g, err := tracegen.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	var branches []bp.Branch
	for {
		ev, err := g.Read()
		if err != nil {
			break
		}
		branches = append(branches, ev.Branch)
	}
	const batch = 4096
	out := make([]bp.Prediction, batch)
	run := func(b *testing.B, p bp.Predictor) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(branches); lo += batch {
				hi := min(lo+batch, len(branches))
				bp.SimulateBatch(p, branches[lo:hi], out)
			}
		}
		b.ReportMetric(float64(len(branches))*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
	}
	for _, pred := range bench.TableIIIPredictors {
		for _, path := range []struct {
			name string
			wrap func(bp.Predictor) bp.Predictor
		}{
			{pred.Label, func(p bp.Predictor) bp.Predictor { return p }},
			{pred.Label + "/scalar", bp.ScalarOnly},
		} {
			b.Run(path.name, func(b *testing.B) {
				p, err := registry.New(pred.Spec)
				if err != nil {
					b.Fatal(err)
				}
				run(b, path.wrap(p))
			})
		}
	}
}
