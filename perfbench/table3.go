package main

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"time"

	"mbplib/internal/bench"
	"mbplib/internal/cbp5"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

// table3Scale is the branch count of a short cbp5-train trace. At 10k one
// pass over the 8 predictors × 12 traces takes a few seconds on both
// sides, so a 10 s phase covers several whole passes.
const table3Scale = 10_000

// table3Traces is the cbp5-train suite in the two formats Table III
// compares: SBBT+MLZ for MBPlib and BT9+gzip for the CBP5 framework.
func table3Traces(seed uint64) ([]traceJob, error) {
	specs, err := tracegen.Suite("cbp5-train", table3Scale)
	if err != nil {
		return nil, err
	}
	var jobs []traceJob
	for _, s := range reseed(specs, seed, 0x7AB1E3) {
		jobs = append(jobs, traceJob{spec: s, formats: []string{fmtSBBTMLZ, fmtBT9Gz}})
	}
	return jobs, nil
}

// table3Cell is one (predictor, trace) pair of Table III.
type table3Cell struct {
	spec     string
	sbbt     string
	bt9      string
	branches uint64
}

// measureTable3 runs every Table III predictor over every trace, through
// sim.Run on the SBBT trace and cbp5.RunTrace on the BT9 trace. The two
// sides alternate cell by cell, and which goes first alternates too, so
// machine drift lands on both sides of the ratio. Whole passes repeat
// until the phase's time is up, so every predictor weighs the same in
// every run.
func measureTable3(b *harness, l *layers) (*phase, error) {
	var cells []table3Cell
	for _, p := range bench.TableIIIPredictors {
		for _, job := range b.traces {
			cells = append(cells, table3Cell{
				spec: p.Spec, branches: job.spec.Branches,
				sbbt: filepath.Join(b.dir, job.spec.Name+fmtSBBTMLZ),
				bt9:  filepath.Join(b.dir, job.spec.Name+fmtBT9Gz),
			})
		}
	}
	var col *obs.Collector
	if l != nil {
		col = obs.New()
	}
	ph := &phase{}
	var mbpS, cbpS, mbpBranches float64
	var rates, peaks []float64

	// One untimed warm-up cell: lazy runtime and page-cache set-up is paid
	// before the clock starts.
	runTable3Cell(b, ph, cells[len(cells)-1], false, nil, nil)

	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < b.seconds; pass++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		var passS, passBranches float64
		for k, c := range cells {
			t0 := l.now()
			mbp, cbp, ok := runTable3Cell(b, ph, c, k%2 == 1, l, col)
			if !ok {
				continue
			}
			mbpS += mbp.Seconds()
			cbpS += cbp.Seconds()
			mbpBranches += float64(c.branches)
			passS += mbp.Seconds()
			passBranches += float64(c.branches)
			l.addSpan(span{Workload: "table3", Name: "cell", Cell: fmt.Sprintf("%s|%s", c.spec, c.sbbt),
				Counts: map[string]float64{"mbplib_s": mbp.Seconds(), "cbp5_s": cbp.Seconds(), "branches": float64(c.branches)}}, t0)
		}
		rates = append(rates, ratio(passBranches, passS))
		peaks = append(peaks, peakRSSMB())
	}
	wall := time.Since(start).Seconds()

	ph.branchesPerS, ph.peakRSSMB = median(rates), median(peaks)
	sbbtBytes, err := fileBytes(tracePaths(b.dir, b.traces, fmtSBBTMLZ))
	if err != nil {
		return nil, err
	}
	bt9Bytes, err := fileBytes(tracePaths(b.dir, b.traces, fmtBT9Gz))
	if err != nil {
		return nil, err
	}
	ph.extra = []figure{
		{name: "cbp5_speedup", value: ratio(cbpS, mbpS), unit: "x"},
		{name: "trace_size_ratio", value: ratio(float64(bt9Bytes), float64(sbbtBytes)), unit: "x"},
	}
	if l != nil {
		m := map[string]float64{}
		snap := col.Snapshot()
		prefetch := snap.Stages["prefetch_stall"].Seconds
		simLayers(l, float64(l.simNs.Load())/1e9, prefetch, false, m)
		m["sim.prefetch_wait_s"] = prefetch
		m["cbp5.ns_per_branch"] = ratio(cbpS*1e9, mbpBranches)
		m["layers.cover_frac"] = coverFrac([]float64{mbpS, cbpS}, wall, 1)
		ph.layer = m
	}
	return ph, nil
}

// runTable3Cell runs both sides of one cell and checks that they agree on
// the misprediction and conditional-branch counts (§VII-C). Each side's
// time covers building the predictor, opening the trace and simulating.
func runTable3Cell(b *harness, ph *phase, c table3Cell, simFirst bool, l *layers, col *obs.Collector) (mbp, cbp time.Duration, ok bool) {
	ph.attempted++
	var res *sim.Result
	var cres *cbp5.Results
	var err error
	sides := []func() error{
		func() error {
			t := time.Now()
			res, err = runMBPlib(c.sbbt, c.spec, l, col)
			mbp = time.Since(t)
			return err
		},
		func() error {
			t := time.Now()
			cres, err = runCBP5(c.bt9, c.spec)
			cbp = time.Since(t)
			return err
		},
	}
	if !simFirst {
		sides[0], sides[1] = sides[1], sides[0]
	}
	for _, side := range sides {
		if err := side(); err != nil {
			ph.fail(b.log, "table3 %s on %s: %v", c.spec, c.sbbt, err)
			return 0, 0, false
		}
	}
	if res.Metrics.Mispredictions != cres.Mispredictions || res.Metadata.NumConditionalBranches != cres.CondBranches {
		ph.fail(b.log, "table3 %s on %s: sim.Run counts %d mispredictions of %d conditional branches, cbp5 %d of %d",
			c.spec, c.sbbt, res.Metrics.Mispredictions, res.Metadata.NumConditionalBranches, cres.Mispredictions, cres.CondBranches)
		return 0, 0, false
	}
	return mbp, cbp, true
}

// runMBPlib is the MBPlib side of a cell: registry, compress, sbbt, sim.Run.
func runMBPlib(path, spec string, l *layers, col *obs.Collector) (*sim.Result, error) {
	p, err := registry.New(spec)
	if err != nil {
		return nil, err
	}
	r, closer, err := openTrace(path, l)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	t := l.now()
	res, err := sim.Run(r, l.predictor(spec, p), sim.Config{TraceName: path, Metrics: col})
	if l != nil {
		l.simNs.Add(l.now() - t)
	}
	return res, err
}

// runCBP5 is the framework side of a cell.
func runCBP5(path, spec string) (*cbp5.Results, error) {
	p, err := registry.New(spec)
	if err != nil {
		return nil, err
	}
	return cbp5.RunTrace(path, cbp5.Adapter{P: p})
}
