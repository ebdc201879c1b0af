package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"time"

	"mbplib/internal/bench"
	"mbplib/internal/bp"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
	"mbplib/internal/tracegen"
)

// The sweep workload's matrix: 16 high-entropy traces × 12 gshare history
// lengths = 192 cells of a few milliseconds each, so the slowest cell is a
// small share of one sweep and many sweeps fit in a phase.
const (
	sweepTraceCount = 16
	sweepScale      = 100_000
)

// defaultSeed is the seed whose sweep output digest is stored below.
const defaultSeed = 1

// sweepDigestDefaultSeed is the SHA-256 of the sweep's rendered JSON at
// defaultSeed. The report carries no simulation_time, so nothing is
// zeroed before hashing.
const sweepDigestDefaultSeed = "7632ce9bd7ed108c8461a08d86f7aef4f6ac4341c4498eec5cde1e731d89c1bd"

// sweepTraces builds the sweep's traces like bench.SweepSpecs: near-random
// outcomes over large working sets. Even-numbered traces are stored as
// packet-aligned .sbbt.mlzs (the cache's chunk path, AcquireChunk), the
// others as .sbbt.mlz (the whole-trace path, Acquire).
func sweepTraces(seed uint64) ([]traceJob, error) {
	return mixedTraces(bench.SweepSpecs(sweepTraceCount, sweepScale), seed, 0x5EE9), nil
}

func mixedTraces(specs []tracegen.Spec, seed, salt uint64) []traceJob {
	var jobs []traceJob
	for i, s := range reseed(specs, seed, salt) {
		format := fmtSBBTMLZ
		if i%2 == 0 {
			format = fmtSBBTMLZS
		}
		jobs = append(jobs, traceJob{spec: s, formats: []string{format}})
	}
	return jobs
}

// sweepSpec is the measured sweep: gshare history length 2..24 over every
// trace of dir.
func sweepSpec(dir string) sweep.Spec {
	return sweep.Spec{
		Traces:    filepath.Join(dir, "SWEEP-*.sbbt.mlz*"),
		Predictor: "gshare:h=%d,t=14",
		From:      2, To: 24, Step: 2,
	}
}

// measureSweep runs the whole sweep — Resolve, Run at the scheduler width
// with the default cache budget, Render — again and again until the
// phase's time is up, and reports matrix branches over summed sweep wall
// time.
func measureSweep(b *harness, l *layers) (*phase, error) {
	ph := &phase{}
	spec := sweepSpec(b.dir)
	var traceBranches float64
	for _, job := range b.traces {
		traceBranches += float64(job.spec.Branches)
	}

	// One untimed warm-up cell: the first trace with the first value.
	warm := spec
	warm.Traces = filepath.Join(b.dir, b.traces[0].spec.Name+"*")
	warm.To = warm.From
	ph.attempted++
	if _, _, err := runSweep(warm, b.jobs, nil, nil); err != nil {
		ph.fail(b.log, "sweep warm-up: %v", err)
	}

	var agg sweepObs
	var wallS float64
	var rates, peaks []float64
	var first []byte
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < b.seconds; rep++ {
		// Each sweep starts from a collected heap returned to the OS, as a
		// fresh sweep process would, instead of paying for the previous
		// sweep's cache garbage or inheriting its resident pages.
		debug.FreeOSMemory()
		resetPeakRSS()
		var col *obs.Collector
		if l != nil {
			col = obs.New()
		}
		s0, before := l.now(), l.counts()
		t := time.Now()
		out, values, err := runSweep(spec, b.jobs, l, col)
		d := time.Since(t).Seconds()
		ph.attempted++
		if err != nil {
			ph.fail(b.log, "sweep: %v", err)
			continue
		}
		wallS += d
		rates = append(rates, traceBranches*float64(values)/d)
		peaks = append(peaks, peakRSSMB())
		if first == nil {
			first = out
		} else if !bytes.Equal(out, first) {
			ph.fail(b.log, "sweep: output of sweep %d differs from the first sweep of this run", rep)
		}
		if l != nil {
			agg.add(col.Snapshot(), l)
			l.addSpan(span{Workload: "sweep", Name: "sweep", Cell: fmt.Sprintf("sweep-%d", rep),
				Counts: delta(before, l.counts())}, s0)
		}
	}
	// Medians over the sweeps: one sweep disturbed by the machine moves
	// neither figure.
	ph.branchesPerS, ph.peakRSSMB = median(rates), median(peaks)
	if first != nil {
		checkSweepOutput(b, ph, spec, first)
	}
	if l != nil {
		m := map[string]float64{}
		simLayers(l, agg.busyS, agg.cacheWaitS+agg.prefetchS, true, m)
		m["sim.prefetch_wait_s"] = agg.prefetchS
		agg.schedLayers(m)
		m["layers.cover_frac"] = coverFrac([]float64{agg.busyS}, wallS, b.jobs)
		ph.layer = m
	}
	return ph, nil
}

// runSweep resolves, runs and renders one sweep as mbpsweep -json would,
// returning the rendered JSON and the number of swept values.
func runSweep(spec sweep.Spec, jobs int, l *layers, col *obs.Collector) ([]byte, int, error) {
	r, err := spec.Resolve()
	if err != nil {
		return nil, 0, err
	}
	r.Sources = l.sources(r.Sources)
	if l != nil {
		for i, s := range r.Specs {
			newP := r.Preds[i].New
			r.Preds[i].New = func() bp.Predictor { return l.predictor(s, newP()) }
		}
	}
	sets, err := r.Run(sweep.RunOptions{Jobs: jobs, Metrics: col})
	if err != nil {
		return nil, 0, err
	}
	var out bytes.Buffer
	if code := sweep.Render(&out, io.Discard, r.Specs, sets, len(r.Sources), true); code != sweep.ExitOK {
		return nil, 0, fmt.Errorf("sweep rendered exit code %d", code)
	}
	return out.Bytes(), len(r.Specs), nil
}

// checkSweepOutput checks the rendered sweep two ways, untimed: its digest
// against the stored one at the default seed, and at any seed its first
// value's average MPKI against sim.Run over each trace directly.
func checkSweepOutput(b *harness, ph *phase, spec sweep.Spec, out []byte) {
	if b.seed == defaultSeed {
		ph.attempted++
		if d := fmt.Sprintf("%x", sha256.Sum256(out)); d != sweepDigestDefaultSeed {
			ph.fail(b.log, "sweep: output digest %s, want %s", d, sweepDigestDefaultSeed)
		}
	}
	ph.attempted++
	var rep sweep.Report
	if err := json.Unmarshal(out, &rep); err != nil || len(rep.Values) == 0 {
		ph.fail(b.log, "sweep: undecodable report: %v", err)
		return
	}
	r, err := spec.Resolve()
	if err != nil {
		ph.fail(b.log, "sweep: %v", err)
		return
	}
	var sum float64
	for _, src := range r.Sources {
		res, err := simulate(src.Name, r.Specs[0])
		if err != nil {
			ph.fail(b.log, "sweep: reference run of %s: %v", src.Name, err)
			return
		}
		sum += res.Metrics.MPKI
	}
	if want := sum / float64(len(r.Sources)); rep.Values[0].AvgMPKI != want {
		ph.fail(b.log, "sweep: %s averages %v MPKI, sim.Run over the same traces %v", r.Specs[0], rep.Values[0].AvgMPKI, want)
	}
}

// simulate runs one predictor over one SBBT trace with sim.Run, untraced.
func simulate(path, spec string) (*sim.Result, error) {
	p, err := registry.New(spec)
	if err != nil {
		return nil, err
	}
	r, closer, err := openTrace(path, nil)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return sim.Run(r, p, sim.Config{TraceName: path})
}
