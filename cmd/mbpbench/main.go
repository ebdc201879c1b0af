// Command mbpbench regenerates the tables of the MBPlib paper's evaluation
// (§VII) on synthetic trace suites and prints them as Markdown.
//
// Usage:
//
//	mbpbench -table 1             # trace-set size reduction (Table I)
//	mbpbench -table 3             # simulation time vs CBP5 framework and ChampSim-style model
//	mbpbench -table 4             # CBP5 framework with gzip vs MLZ traces
//	mbpbench -table all -scale 50000
//	mbpbench -sim-snapshot BENCH_sim.json -scale 2000000
//	mbpbench -sim-check BENCH_sim.json -scale 200000
//
// -sim-snapshot skips the tables and instead records the scalar-vs-batched
// pipeline comparison (decode stage and full runs), the parallel-sweep
// scaling curve and the resume-journal write overhead as JSON. -sim-check
// re-measures the same stages at the given (usually reduced) scale and
// fails on a gross throughput regression against the committed snapshot —
// the soft gate behind `make bench-check`.
//
// Scale is the branch count of a short trace; the paper's absolute times
// used 100M-instruction traces, far above what a quick run needs — the
// shape of every table is scale-independent.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mbplib/internal/bench"
	"mbplib/internal/cliflags"
)

func main() {
	var (
		table      = flag.String("table", "all", "table to regenerate: 1, 3, 4 or all")
		scale      = flag.Uint64("scale", 50_000, "branches in a short trace")
		dir        = flag.String("dir", "", "trace directory (default: a temporary one)")
		maxInstr   = flag.Uint64("champsim-instr", 0, "instruction cap for the cycle-level runs (0 = whole trace)")
		snapshot   = flag.String("sim-snapshot", "", "write the scalar-vs-batched pipeline comparison to this JSON file instead of printing tables")
		check      = flag.String("sim-check", "", "re-measure the snapshot stages and fail on a gross throughput regression against this committed JSON file")
		predictors = flag.String("sim-predictors", "bimodal,twolevel:variant=GAs,gshare,tournament,gskew,perceptron,tage,batage", "comma-separated predictor specs for the snapshot's full runs")
		sweepPreds = flag.String("sweep-predictors", "always-taken,bimodal,gshare,bimodal:t=12", "comma-separated predictor specs for the parallel-sweep stage")
		sweepSize  = flag.Int("sweep-traces", 4, "traces in the parallel-sweep matrix")
		rounds     = flag.Int("sim-rounds", 3, "measurement rounds per snapshot variant (best is kept)")
		factor     = flag.Float64("check-factor", 2, "allowed throughput regression factor for -sim-check")
		metricsTo  = flag.String("metrics", "", "write a session-wide pipeline metrics JSON snapshot to this file ('-' = stderr)")
		progress   = flag.Bool("progress", false, "render a live progress line on stderr")
	)
	flag.Parse()
	metrics := cliflags.NewMetrics(*metricsTo, *progress, os.Stderr)
	bench.SetCollector(metrics.Collector())
	var err error
	switch {
	case *snapshot != "":
		err = runSnapshot(*snapshot, *scale, *dir, *predictors, *sweepPreds, *sweepSize, *rounds)
	case *check != "":
		err = runCheck(*check, *scale, *dir, *predictors, *sweepPreds, *sweepSize, *rounds, *factor)
	default:
		err = run(*table, *scale, *dir, *maxInstr)
	}
	if merr := metrics.Close(); merr != nil {
		fmt.Fprintln(os.Stderr, "mbpbench:", merr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbpbench:", err)
		os.Exit(1)
	}
}

// measureSnapshot materialises the snapshot traces at the requested scale
// and measures every stage: scalar-vs-batched decode and full runs over one
// .sbbt.mlz trace, then the parallel-sweep scaling curve over a matrix of
// gzip-compressed traces (where per-pair decompression dominates, which is
// exactly the cost reading each trace once for all its predictors removes).
func measureSnapshot(scale uint64, dir, predictors, sweepPreds string, sweepSize, rounds int) (*bench.SimSnapshot, error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mbpbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	ts, err := bench.PrepareSuite(dir, "cbp5-train", scale, bench.Formats{SBBT: true})
	if err != nil {
		return nil, err
	}
	if len(ts.SBBT) == 0 {
		return nil, fmt.Errorf("suite produced no SBBT traces")
	}
	snap, err := bench.MeasureSim(ts.SBBT[0], strings.Split(predictors, ","), rounds)
	if err != nil {
		return nil, err
	}
	sweepTraces, err := bench.PrepareSweepTraces(dir, sweepSize, scale)
	if err != nil {
		return nil, err
	}
	sweep, err := bench.MeasureSweep(sweepTraces, strings.Split(sweepPreds, ","), bench.DefaultSweepWorkers(), rounds)
	if err != nil {
		return nil, err
	}
	// Journal-write overhead at mbpsweep's default -checkpoint-every interval.
	// The fsync cost is per cell, so this stage needs cells of realistic size
	// to say anything about the amortized contract: a dedicated trace at 4x
	// the snapshot scale and the full-run predictor set (including TAGE)
	// rather than the deliberately tiny sweep matrix.
	jnlDir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jnlDir, 0o755); err != nil {
		return nil, err
	}
	jnlTraces, err := bench.PrepareSweepTraces(jnlDir, 1, 4*scale)
	if err != nil {
		return nil, err
	}
	jnl, err := bench.MeasureJournal(jnlTraces, strings.Split(predictors, ","), cliflags.DefaultCheckpointEvery, rounds)
	if err != nil {
		return nil, err
	}
	snap.Journal = jnl
	// The traces live in a throwaway directory; record just their base names.
	snap.Trace = filepath.Base(snap.Trace)
	for i, path := range sweep.Traces {
		sweep.Traces[i] = filepath.Base(path)
	}
	snap.Sweep = sweep
	return snap, nil
}

// runSnapshot measures every stage and writes the committed JSON snapshot.
func runSnapshot(out string, scale uint64, dir, predictors, sweepPreds string, sweepSize, rounds int) error {
	snap, err := measureSnapshot(scale, dir, predictors, sweepPreds, sweepSize, rounds)
	if err != nil {
		return err
	}
	if err := bench.WriteSimSnapshot(out, snap); err != nil {
		return err
	}
	fmt.Printf("wrote %s: decode %.2fx", out, snap.Read.Speedup)
	for _, e := range snap.Sim {
		fmt.Printf(", %s %.2fx", e.Predictor, e.Speedup)
		if e.Kernel != nil {
			fmt.Printf(" (kernel %.2fx)", e.Kernel.Speedup)
		}
	}
	for _, m := range snap.Sweep.Parallel {
		fmt.Printf(", sweep@%d %.2fx", m.Workers, m.Speedup)
	}
	fmt.Printf(", journal %+.1f%%", 100*snap.Journal.OverheadFraction)
	fmt.Println()
	return nil
}

// runCheck is the soft regression gate: re-measure the snapshot stages
// (usually at reduced scale) and fail only when throughput regressed by
// more than factor against the committed snapshot.
func runCheck(committedPath string, scale uint64, dir, predictors, sweepPreds string, sweepSize, rounds int, factor float64) error {
	committed, err := bench.ReadSimSnapshot(committedPath)
	if err != nil {
		return err
	}
	fresh, err := measureSnapshot(scale, dir, predictors, sweepPreds, sweepSize, rounds)
	if err != nil {
		return err
	}
	violations := bench.CompareSnapshots(committed, fresh, factor)
	if err := bench.CheckError(violations); err != nil {
		return err
	}
	fmt.Printf("bench-check OK against %s (allowed factor %.1fx)\n", committedPath, factor)
	return nil
}

func run(table string, scale uint64, dir string, maxInstr uint64) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mbpbench")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if table == "1" || table == "all" {
		fmt.Println("## Table I: size reduction of the translated trace sets")
		fmt.Println()
		rows, err := bench.TableI(dir, scale)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTableI(rows))
	}
	if table == "3" || table == "all" {
		fmt.Println("## Table III (top): MBPlib vs the CBP5 framework")
		fmt.Println()
		ts, err := bench.PrepareSuite(dir, "cbp5-train", scale, bench.Formats{SBBT: true, BT9Gz: true})
		if err != nil {
			return err
		}
		rows, err := bench.TableIIITop(ts)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTimingRows(rows, "CBP5", "MBPlib"))

		fmt.Println("## Table III (bottom): MBPlib vs the ChampSim-style cycle-level model")
		fmt.Println()
		dp, err := bench.PrepareSuite(dir, "dpc3", scale, bench.Formats{SBBT: true, CSTGz: true})
		if err != nil {
			return err
		}
		rows, err = bench.TableIIIBottom(dp, maxInstr)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTimingRows(rows, "ChampSim", "MBPlib"))
	}
	if table == "4" || table == "all" {
		fmt.Println("## Table IV: speedup of the CBP5 framework from the compression method alone")
		fmt.Println()
		ts, err := bench.PrepareSuite(dir, "cbp5-train", scale, bench.Formats{BT9Gz: true, BT9MLZ: true})
		if err != nil {
			return err
		}
		rows, err := bench.TableIV(ts)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTableIV(rows))
	}
	return nil
}
