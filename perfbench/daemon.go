package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"mbplib/internal/api"
	"mbplib/internal/bench"
	"mbplib/internal/daemon"
	"mbplib/internal/obs"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sweep"
)

// The daemon workload's jobs each sweep one gshare configuration over four
// traces: small enough that a run holds a few hundred jobs, so the p90 of
// each request kind has well over ten samples beyond it.
const (
	daemonTraceCount = 4
	daemonScale      = 50_000
	// checkEvery is the sampling period of the untimed check that a fresh
	// job's result equals a local run of the same spec.
	checkEvery = 16
)

func daemonTraces(seed uint64) ([]traceJob, error) {
	return mixedTraces(bench.SweepSpecs(daemonTraceCount, daemonScale), seed, 0xD43A), nil
}

// freshSpecs is the pool of distinct single-value specs, in a seeded
// order. Every one is new to the job store, so submitting it runs a job;
// they differ only in gshare history length, table size and failure
// policy, so each job does comparable work.
func freshSpecs(dir string, rng *rand.Rand) []api.SweepSpec {
	var specs []api.SweepSpec
	for _, policy := range []string{"failfast", "skip"} {
		for t := 10; t <= 17; t++ {
			for h := 1; h <= 64; h++ {
				specs = append(specs, api.SweepSpec{
					Traces:    filepath.Join(dir, "SWEEP-*.sbbt.mlz*"),
					Predictor: fmt.Sprintf("gshare:h=%%d,t=%d", t),
					From:      h, To: h, Policy: policy,
				})
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// finishedJob is a fresh job the client has seen through to its result.
type finishedJob struct {
	spec   api.SweepSpec
	id     string
	result []byte
}

// daemonStats collects the per-request timings of one phase.
type daemonStats struct {
	jobMs, hitMs          []float64 // submit to result bytes
	submitMs, resultMs    []float64
	queueWaitMs, runMs    []float64
	resolveMs             []float64
	measuredS, latencyS   float64 // parts of latency the breakdown measures; all latency
	resultBranches, wallS float64
}

// measureDaemon starts an in-process daemon with its job store under the
// run's directory and drives it over loopback HTTP with one closed-loop
// client that alternates fresh single-value sweeps (submit, wait on the
// job's SSE events, GET the result) and resubmits of finished ones (a
// cache hit, then GET the result).
func measureDaemon(b *harness, l *layers) (*phase, error) {
	ph := &phase{}
	dataDir, err := os.MkdirTemp(b.work, "jobs-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := daemon.New(daemon.Config{DataDir: dataDir, Jobs: b.jobs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: d.Handler()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(b.log, "perfbench: daemon server:", err)
		}
	}()
	d.Start()
	ph.startS = time.Since(t0).Seconds()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(b.log, "perfbench: daemon shutdown:", err)
		}
		wg.Wait()
		d.Close()
	}()

	c := &client{base: "http://" + ln.Addr().String(), http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
	defer c.http.CloseIdleConnections()
	rng := rand.New(rand.NewSource(int64(b.seed)))
	pool := freshSpecs(b.dir, rng)
	var done []finishedJob
	var st daemonStats

	// One untimed warm-up job.
	ph.attempted++
	if fj, _, err := c.fresh(pool[0]); err != nil {
		ph.fail(b.log, "daemon warm-up: %v", err)
	} else {
		done = append(done, fj)
	}
	pool = pool[1:]

	var fresh []finishedJob
	var peaks []float64
	debug.FreeOSMemory()
	resetPeakRSS()
	start, window := time.Now(), time.Now()
	for i := 0; time.Since(start) < b.seconds; i++ {
		if time.Since(window) >= time.Second {
			// The job store grows through the run; the median of
			// per-second peaks is steadier than one peak of the whole run.
			peaks = append(peaks, peakRSSMB())
			resetPeakRSS()
			window = time.Now()
		}
		if len(pool) == 0 && len(done) == 0 {
			break
		}
		s0 := l.now()
		ph.attempted++
		// Fresh jobs and resubmits alternate, so every run has the same
		// mix; the seed picks which specs and which finished job.
		var spec api.SweepSpec
		if len(pool) > 0 && (i%2 == 0 || len(done) == 0) {
			spec, pool = pool[0], pool[1:]
			fj, rt, err := c.fresh(spec)
			if err != nil {
				ph.fail(b.log, "daemon fresh job: %v", err)
				continue
			}
			done = append(done, fj)
			fresh = append(fresh, fj)
			st.addFresh(rt, float64(daemonTraceCount*daemonScale))
			rt.spans(l, "fresh", fj.id, s0)
		} else {
			fj := done[rng.Intn(len(done))]
			spec = fj.spec
			rt, result, err := c.hit(spec)
			if err != nil {
				ph.fail(b.log, "daemon resubmit: %v", err)
				continue
			}
			if !bytes.Equal(result, fj.result) {
				ph.fail(b.log, "daemon resubmit of job %s served other bytes than the fresh run", fj.id)
				continue
			}
			st.addHit(rt, float64(daemonTraceCount*daemonScale))
			rt.spans(l, "hit", fj.id, s0)
		}
		if l != nil {
			// Resolve + AttachDigests of the same spec, out of band: the
			// daemon does this on every submit, hit or not.
			t := time.Now()
			if r, err := daemon.SweepSpec(spec).Resolve(); err == nil {
				r.AttachDigests()
			}
			st.resolveMs = append(st.resolveMs, ms(time.Since(t)))
		}
	}
	st.wallS = time.Since(start).Seconds()
	ph.peakRSSMB = median(append(peaks, peakRSSMB()))
	ph.branchesPerS = ratio(st.resultBranches, st.latencyS)
	ph.extra = append(ph.extra,
		pct("job_p50_ms", st.jobMs, 50), pct("job_p90_ms", st.jobMs, 90),
		pct("hit_p50_ms", st.hitMs, 50), pct("hit_p90_ms", st.hitMs, 90),
		figure{name: "jobs", value: float64(len(st.jobMs)), unit: "count"},
		figure{name: "hits", value: float64(len(st.hitMs)), unit: "count"},
	)

	agg := &sweepObs{}
	checkDaemonResults(b, ph, fresh, l, agg)
	if l != nil {
		m := map[string]float64{}
		simLayers(l, agg.busyS, agg.cacheWaitS+agg.prefetchS, true, m)
		m["sim.prefetch_wait_s"] = agg.prefetchS
		agg.schedLayers(m)
		m["daemon.submit_ms"] = median(st.submitMs)
		m["daemon.queue_wait_ms"] = median(st.queueWaitMs)
		m["daemon.run_ms"] = median(st.runMs)
		m["daemon.result_ms"] = median(st.resultMs)
		m["daemon.resolve_ms"] = median(st.resolveMs)
		m["journal.appends"], m["journal.append_ms"] = journalLayer(b, ph, dataDir, fresh)
		m["layers.cover_frac"] = coverFrac([]float64{st.measuredS}, st.wallS, 1)
		ph.layer = m
	}
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// pct is a percentile figure, n/a when fewer than ten samples lie beyond it.
func pct(name string, samples []float64, q float64) figure {
	v, ok := percentile(samples, q)
	return figure{name: name, value: v, unit: "ms", na: !ok}
}

// roundTrip is the client-side timeline of one request.
type roundTrip struct {
	submit, wait, result time.Duration
	// queueWait and run are the job's server-side timestamps: created to
	// started, started to finished. Zero for hits.
	queueWait, run time.Duration
}

func (rt roundTrip) total() time.Duration { return rt.submit + rt.wait + rt.result }

// spans records the request as a span with one child per API call, and
// the job's server-side queue wait and run as counts.
func (rt roundTrip) spans(l *layers, kind, job string, start int64) {
	if l == nil {
		return
	}
	id := l.addSpan(span{Workload: "daemon-jobs", Name: kind, Job: job, Counts: map[string]float64{
		"queue_wait_ms": ms(rt.queueWait), "run_ms": ms(rt.run),
	}}, start)
	t := start
	for _, call := range []struct {
		name string
		d    time.Duration
	}{{"submit", rt.submit}, {"wait", rt.wait}, {"result", rt.result}} {
		if call.d > 0 {
			l.addSpanAt(span{Parent: id, Workload: "daemon-jobs", Name: call.name, Job: job}, t, t+int64(call.d))
			t += int64(call.d)
		}
	}
}

func (s *daemonStats) addFresh(rt roundTrip, branches float64) {
	s.jobMs = append(s.jobMs, ms(rt.total()))
	s.queueWaitMs = append(s.queueWaitMs, ms(rt.queueWait))
	s.runMs = append(s.runMs, ms(rt.run))
	s.measuredS += (rt.submit + rt.queueWait + rt.run + rt.result).Seconds()
	s.add(rt, branches)
}

func (s *daemonStats) addHit(rt roundTrip, branches float64) {
	s.hitMs = append(s.hitMs, ms(rt.total()))
	s.measuredS += (rt.submit + rt.result).Seconds()
	s.add(rt, branches)
}

// add counts the branches the request's result covers: a hit delivers the
// same result as the fresh job without simulating.
func (s *daemonStats) add(rt roundTrip, branches float64) {
	s.submitMs = append(s.submitMs, ms(rt.submit))
	s.resultMs = append(s.resultMs, ms(rt.result))
	s.latencyS += rt.total().Seconds()
	s.resultBranches += branches
}

// client is the closed-loop API client: one request at a time over one
// connection.
type client struct {
	base string
	http *http.Client
}

// fresh submits a spec the store has not seen, waits for the job on its
// SSE stream and fetches the result.
func (c *client) fresh(spec api.SweepSpec) (finishedJob, roundTrip, error) {
	var rt roundTrip
	t := time.Now()
	sub, err := c.submit(spec, http.StatusAccepted)
	if err != nil {
		return finishedJob{}, rt, err
	}
	if sub.Cached {
		return finishedJob{}, rt, fmt.Errorf("fresh spec %+v was served from the store", spec)
	}
	rt.submit = time.Since(t)
	t = time.Now()
	job, err := c.wait(sub.ID)
	if err != nil {
		return finishedJob{}, rt, err
	}
	rt.wait = time.Since(t)
	if job.State != api.StateDone || job.ExitCode != sweep.ExitOK {
		return finishedJob{}, rt, fmt.Errorf("job %s ended %s with exit code %d: %s", sub.ID, job.State, job.ExitCode, job.Error)
	}
	t = time.Now()
	result, err := c.result(sub.ID)
	if err != nil {
		return finishedJob{}, rt, err
	}
	rt.result = time.Since(t)
	created, err1 := time.Parse(time.RFC3339Nano, job.Created)
	started, err2 := time.Parse(time.RFC3339Nano, job.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, job.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return finishedJob{}, rt, fmt.Errorf("job %s timestamps: %w", sub.ID, err)
	}
	rt.queueWait, rt.run = started.Sub(created), finished.Sub(started)
	return finishedJob{spec: spec, id: sub.ID, result: result}, rt, nil
}

// hit resubmits a finished spec, which the store must serve as cached, and
// fetches the result.
func (c *client) hit(spec api.SweepSpec) (roundTrip, []byte, error) {
	var rt roundTrip
	t := time.Now()
	sub, err := c.submit(spec, http.StatusOK)
	if err != nil {
		return rt, nil, err
	}
	if !sub.Cached || sub.State != api.StateDone {
		return rt, nil, fmt.Errorf("resubmit of job %s was not a cache hit (state %s)", sub.ID, sub.State)
	}
	rt.submit = time.Since(t)
	t = time.Now()
	result, err := c.result(sub.ID)
	rt.result = time.Since(t)
	return rt, result, err
}

func (c *client) submit(spec api.SweepSpec, want int) (api.SubmitResponse, error) {
	var sub api.SubmitResponse
	body, err := json.Marshal(api.SubmitRequest{APIVersion: api.Version, Spec: spec})
	if err != nil {
		return sub, err
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return sub, err
	}
	data, err := readAll(resp)
	if err != nil {
		return sub, err
	}
	if resp.StatusCode != want {
		return sub, fmt.Errorf("submit refused: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return sub, json.Unmarshal(data, &sub)
}

// wait reads the job's SSE stream until its "done" frame and returns the
// job the frame carries. Waiting on events, not polling, keeps the
// measured latency free of a poll interval.
func (c *client) wait(id string) (api.Job, error) {
	var job api.Job
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body) // the status is the error; the body only adds detail
		return job, fmt.Errorf("events refused: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event, found := "", false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == api.EventDone:
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &job); err != nil {
				return job, fmt.Errorf("decoding done event: %w", err)
			}
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return job, err
	}
	if !found {
		return job, fmt.Errorf("event stream of job %s ended without a done event", id)
	}
	return job, nil
}

func (c *client) result(id string) ([]byte, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	data, err := readAll(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result refused: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// checkDaemonResults compares a sample of fresh jobs' results, untimed,
// with sweep.Render of the same resolved spec run locally. When traced,
// the local runs are where the simulation layers are measured: the
// daemon's own sweeps run behind its API, out of the tracer's reach.
func checkDaemonResults(b *harness, ph *phase, fresh []finishedJob, l *layers, agg *sweepObs) {
	for i := 0; i < len(fresh); i += checkEvery {
		fj := fresh[i]
		ph.attempted++
		var col *obs.Collector
		if l != nil {
			col = obs.New()
		}
		out, _, err := runSweep(daemon.SweepSpec(fj.spec), b.jobs, l, col)
		if err != nil {
			ph.fail(b.log, "daemon check: local run of job %s: %v", fj.id, err)
			continue
		}
		if !bytes.Equal(out, fj.result) {
			ph.fail(b.log, "daemon check: job %s result differs from a local run of the same spec", fj.id)
		}
		if l != nil {
			agg.add(col.Snapshot(), l)
		}
	}
}

// journalLayer counts the journal records of the fresh jobs and times
// appends out of band: one finished job's cell records are appended again
// to a scratch journal in the job store, on the same filesystem.
func journalLayer(b *harness, ph *phase, dataDir string, fresh []finishedJob) (appends, appendMs float64) {
	if len(fresh) == 0 {
		return 0, 0
	}
	var records []journal.CellRecord
	for i, fj := range fresh {
		ph.attempted++
		jnl, err := journal.Open(filepath.Join(dataDir, "jobs", fj.id, "journal"))
		if err != nil {
			ph.fail(b.log, "daemon journal of job %s: %v", fj.id, err)
			continue
		}
		appends += float64(jnl.CellCount())
		if i == 0 {
			if r, err := daemon.SweepSpec(fj.spec).Resolve(); err == nil {
				r.AttachDigests()
				for _, src := range r.Sources {
					if rec, ok := jnl.Cell(sim.CellKey(src, r.Specs[0], sim.Config{})); ok {
						records = append(records, rec)
					}
				}
			}
		}
		if err := jnl.Close(); err != nil {
			ph.fail(b.log, "daemon journal of job %s: %v", fj.id, err)
		}
	}
	if len(records) == 0 {
		return appends, 0
	}
	scratch, err := journal.Open(filepath.Join(dataDir, "append-probe"))
	if err != nil {
		return appends, 0
	}
	defer scratch.Close()
	var lat []float64
	for i := 0; i < 64; i++ {
		t := time.Now()
		if _, err := scratch.AppendCell(records[i%len(records)]); err != nil {
			return appends, 0
		}
		lat = append(lat, ms(time.Since(t)))
	}
	return appends, median(lat)
}
