// Package daemon is the long-running sweep service behind mbpd. It owns the
// behaviour of the JSON HTTP API whose wire types live in internal/api: a
// bounded job queue feeding the internal/sweep pipeline, journal-backed
// persistence under a data directory so finished jobs survive restarts and
// resubmissions are cache hits, and a graceful drain that finishes in-flight
// cells, checkpoints them, and reports "draining" until the process exits.
//
// The layering mirrors moby's daemon/api/cli split: internal/api is the
// contract, this package the server-side behaviour, cmd/mbpd the process
// wrapper and cmd/mbpctl the remote client. Because jobs execute through the
// very same internal/sweep functions as mbpsweep, a job's stored result JSON
// is byte-identical to a local run of the same spec.
//
// On-disk layout under DataDir:
//
//	jobs/<id>/job.json     the job record (spec, state, timestamps)
//	jobs/<id>/result.json  the rendered result of a finished job
//	jobs/<id>/journal/     the resume journal of the sweep's cells
//
// <id> is a prefix of the sweep's content-addressed key (trace digests,
// expanded predictor specs, simulation window, policy), so two submissions
// of the same work are the same job: the second is served from the store
// without simulating, and a restarted daemon replays the journal of an
// interrupted job instead of starting over.
package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mbplib/internal/api"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sim/tracecache"
	"mbplib/internal/sweep"
)

// IDLength is how many hex digits of the sweep key name a job. 48 bits of
// content hash: enough that distinct sweeps never collide in one data
// directory, short enough to paste into curl.
const IDLength = 12

// Config configures a daemon. The zero value of every field except DataDir
// picks a sensible default.
type Config struct {
	// DataDir is the root of the job store. Required.
	DataDir string
	// Jobs is the scheduler width of each sweep (the -j of mbpsweep).
	// <= 0 means GOMAXPROCS.
	Jobs int
	// CacheBytes budgets the one decoded-trace cache that every job
	// shares for the daemon's life, so a job over traces an earlier job
	// read decodes nothing. 0 means sim.DefaultCacheBytes, negative
	// disables the cache.
	CacheBytes int64
	// QueueDepth bounds the number of jobs admitted but not yet finished
	// (queued + running). Submissions beyond it are refused with 503.
	// <= 0 means DefaultQueueDepth.
	QueueDepth int
	// CheckpointEvery is the per-cell checkpoint interval (events) written
	// to each job's journal. 0 disables in-flight checkpoints.
	CheckpointEvery uint64
	// CellTimeout bounds each (value, trace) cell's time: its trace's
	// shared reading time plus its own simulation. 0 = none.
	CellTimeout time.Duration
	// Backoff is the delay before the first transient-open retry.
	Backoff time.Duration
	// SnapshotEvery is the cadence of SSE progress snapshots.
	// <= 0 means DefaultSnapshotEvery.
	SnapshotEvery time.Duration
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
}

// Defaults for Config's zero values.
const (
	DefaultQueueDepth    = 16
	DefaultSnapshotEvery = time.Second
)

// Sentinel errors of Submit, written as API envelopes by the HTTP layer.
var (
	// ErrQueueFull reports a bounded queue at capacity.
	ErrQueueFull = errors.New("job queue is full")
	// ErrDraining reports a daemon refusing work during graceful drain.
	ErrDraining = errors.New("daemon is draining")
)

// Daemon is one sweep service instance. Construct with New, serve its
// Handler, Start the runner, and Drain then Close on shutdown.
type Daemon struct {
	cfg   Config
	logf  func(string, ...any)
	cache *tracecache.Cache // shared by every job; nil when disabled

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // job IDs in submission order

	wake      chan struct{} // runner wake-up, buffered 1
	draining  chan struct{} // closed by Drain
	drainOnce sync.Once
	started   bool
	wg        sync.WaitGroup
}

// job is the mutable server-side state of one sweep. Guarded by its own
// mutex so the HTTP handlers never block on a running simulation.
type job struct {
	mu       sync.Mutex
	id       string
	spec     sweep.Spec
	state    string
	exitCode int
	errMsg   string
	class    string
	created  time.Time
	started  time.Time
	finished time.Time
	result   *api.JobResult

	resolved *sweep.Resolved // nil for jobs recovered from disk
	metrics  *obs.Collector  // non-nil while running
	cancel   chan struct{}   // closed to cancel this job
	closed   bool            // cancel already closed
	changed  chan struct{}   // replaced and closed on every transition
}

// New opens (or creates) the job store under cfg.DataDir and recovers every
// persisted job: finished jobs are served from their stored results without
// re-simulating, interrupted ones go back to the queue and replay their
// journals when the runner reaches them. Call Start to begin executing.
func New(cfg Config) (*Daemon, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("daemon: DataDir is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(jobsDir(cfg.DataDir), 0o755); err != nil {
		return nil, fmt.Errorf("daemon: creating job store: %w", err)
	}
	d := &Daemon{
		cfg:      cfg,
		logf:     cfg.Logf,
		cache:    sim.NewCache(cfg.CacheBytes),
		jobs:     map[string]*job{},
		wake:     make(chan struct{}, 1),
		draining: make(chan struct{}),
	}
	if d.logf == nil {
		d.logf = func(string, ...any) {}
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

func jobsDir(dataDir string) string       { return filepath.Join(dataDir, "jobs") }
func (d *Daemon) jobDir(id string) string { return filepath.Join(jobsDir(d.cfg.DataDir), id) }

// recover loads every job directory. Records that were mid-flight when the
// previous process died (queued or running) restart as queued; their
// journals make the re-run a replay, not a redo.
func (d *Daemon) recover() error {
	entries, err := os.ReadDir(jobsDir(d.cfg.DataDir))
	if err != nil {
		return fmt.Errorf("daemon: reading job store: %w", err)
	}
	var recovered []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		j, err := d.loadJob(e.Name())
		if err != nil {
			d.logf("daemon: skipping job %s: %v", e.Name(), err)
			continue
		}
		recovered = append(recovered, j)
	}
	sort.Slice(recovered, func(i, k int) bool {
		if !recovered[i].created.Equal(recovered[k].created) {
			return recovered[i].created.Before(recovered[k].created)
		}
		return recovered[i].id < recovered[k].id
	})
	d.mu.Lock()
	for _, j := range recovered {
		d.jobs[j.id] = j
		d.order = append(d.order, j.id)
	}
	d.mu.Unlock()
	return nil
}

func (d *Daemon) loadJob(id string) (*job, error) {
	data, err := os.ReadFile(filepath.Join(d.jobDir(id), "job.json"))
	if err != nil {
		return nil, err
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("decoding job.json: %w", err)
	}
	if rec.ID != id {
		return nil, fmt.Errorf("job.json names %q", rec.ID)
	}
	j := &job{
		id: id, spec: rec.Spec, state: rec.State,
		exitCode: rec.ExitCode, errMsg: rec.Error, class: rec.FailureClass,
		created: rec.Created, started: rec.Started, finished: rec.Finished,
		cancel: make(chan struct{}), changed: make(chan struct{}),
	}
	if !api.TerminalState(j.state) {
		// Interrupted mid-flight: back to the queue. The journal replays
		// its finished cells when the runner picks it up again.
		j.state = api.StateQueued
		j.started, j.finished = time.Time{}, time.Time{}
	} else if j.state != api.StateFailed {
		// The renderings are stored verbatim — the JSON document exactly as
		// sweep.Render wrote it — so a recovered job serves the same bytes
		// the first life did.
		raw, jerr := os.ReadFile(filepath.Join(d.jobDir(id), "result.json"))
		text, terr := os.ReadFile(filepath.Join(d.jobDir(id), "result.txt"))
		if jerr == nil && terr == nil {
			j.result = &api.JobResult{ExitCode: rec.ExitCode, JSON: raw, Text: string(text)}
		}
	}
	return j, nil
}

// jobRecord is the persisted form of a job (jobs/<id>/job.json).
type jobRecord struct {
	ID           string     `json:"id"`
	Spec         sweep.Spec `json:"spec"`
	State        string     `json:"state"`
	ExitCode     int        `json:"exit_code"`
	Error        string     `json:"error,omitempty"`
	FailureClass string     `json:"failure_class,omitempty"`
	Created      time.Time  `json:"created"`
	Started      time.Time  `json:"started,omitempty"`
	Finished     time.Time  `json:"finished,omitempty"`
}

// persist writes the job record atomically (tmp + rename). Persistence
// failures are logged, not fatal: the daemon keeps serving from memory.
func (d *Daemon) persist(j *job) {
	j.mu.Lock()
	rec := jobRecord{
		ID: j.id, Spec: j.spec, State: j.state, ExitCode: j.exitCode,
		Error: j.errMsg, FailureClass: j.class,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	j.mu.Unlock()
	dir := d.jobDir(j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		d.logf("daemon: persisting job %s: %v", j.id, err)
		return
	}
	if err := writeFileAtomic(filepath.Join(dir, "job.json"), rec); err != nil {
		d.logf("daemon: persisting job %s: %v", j.id, err)
	}
}

func writeFileAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeBytesAtomic(path, append(data, '\n'))
}

func writeBytesAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// transition moves a job to a new state under its lock, stamps the relevant
// timestamp, wakes watchers, and persists the record.
func (d *Daemon) transition(j *job, state string, mutate func(*job)) {
	j.mu.Lock()
	j.state = state
	now := time.Now().UTC()
	switch state {
	case api.StateRunning:
		j.started = now
	case api.StateDone, api.StateFailed, api.StateCancelled:
		j.finished = now
	}
	if mutate != nil {
		mutate(j)
	}
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
	d.persist(j)
}

// view renders the API form of a job.
func (j *job) view() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := api.Job{
		APIVersion:   api.Version,
		ID:           j.id,
		State:        j.state,
		Spec:         apiSpec(j.spec),
		ExitCode:     j.exitCode,
		Error:        j.errMsg,
		FailureClass: j.class,
		Result:       j.result,
	}
	if !j.created.IsZero() {
		out.Created = j.created.Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		out.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		out.Finished = j.finished.Format(time.RFC3339Nano)
	}
	return out
}

func apiSpec(s sweep.Spec) api.SweepSpec {
	return api.SweepSpec{
		Traces: s.Traces, Predictor: s.Predictor,
		From: s.From, To: s.To, Step: s.Step,
		Policy: s.Policy, Retries: s.Retries,
	}
}

// SweepSpec converts the wire spec into the pipeline spec.
func SweepSpec(s api.SweepSpec) sweep.Spec {
	return sweep.Spec{
		Traces: s.Traces, Predictor: s.Predictor,
		From: s.From, To: s.To, Step: s.Step,
		Policy: s.Policy, Retries: s.Retries,
	}
}

// Submit admits one sweep. The resolved spec's content key names the job:
// resubmitting work the store has already finished returns the stored job
// with cached=true and simulates nothing; resubmitting a cancelled job
// revives it (its journal replays the cells that did finish); resubmitting
// a queued or running job returns it unchanged.
func (d *Daemon) Submit(resolved *sweep.Resolved) (api.Job, bool, error) {
	id := resolved.Key()[:IDLength]
	d.mu.Lock()
	defer d.mu.Unlock()
	if j, ok := d.jobs[id]; ok {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case api.StateDone, api.StateFailed:
			return j.view(), true, nil
		case api.StateCancelled:
			select {
			case <-d.draining:
				return api.Job{}, false, ErrDraining
			default:
			}
			// Revive: the journal already holds every finished cell.
			j.mu.Lock()
			j.state = api.StateQueued
			j.exitCode, j.errMsg, j.class = 0, "", ""
			j.started, j.finished = time.Time{}, time.Time{}
			j.result = nil
			j.resolved = resolved
			j.cancel = make(chan struct{})
			j.closed = false
			close(j.changed)
			j.changed = make(chan struct{})
			j.mu.Unlock()
			d.persist(j)
			d.kick()
			return j.view(), false, nil
		default:
			return j.view(), false, nil
		}
	}
	select {
	case <-d.draining:
		return api.Job{}, false, ErrDraining
	default:
	}
	if d.pendingLocked() >= d.cfg.QueueDepth {
		return api.Job{}, false, ErrQueueFull
	}
	j := &job{
		id: id, spec: resolved.Spec, state: api.StateQueued,
		created: time.Now().UTC(), resolved: resolved,
		cancel: make(chan struct{}), changed: make(chan struct{}),
	}
	d.jobs[id] = j
	d.order = append(d.order, id)
	d.persist(j)
	d.kick()
	return j.view(), false, nil
}

// pendingLocked counts admitted-but-unfinished jobs. Caller holds d.mu.
func (d *Daemon) pendingLocked() int {
	n := 0
	for _, j := range d.jobs {
		j.mu.Lock()
		if !api.TerminalState(j.state) {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// kick wakes the runner without blocking.
func (d *Daemon) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Jobs lists every job in submission order.
func (d *Daemon) Jobs() []api.Job {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, d.jobs[id])
	}
	d.mu.Unlock()
	out := make([]api.Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Health summarises the daemon for /v1/healthz.
func (d *Daemon) Health() api.Health {
	h := api.Health{APIVersion: api.Version, Status: api.HealthOK}
	select {
	case <-d.draining:
		h.Status = api.HealthDraining
	default:
	}
	for _, j := range d.Jobs() {
		switch j.State {
		case api.StateQueued:
			h.Queued++
		case api.StateRunning:
			h.Running++
		case api.StateDone:
			h.Done++
		case api.StateFailed:
			h.Failed++
		case api.StateCancelled:
			h.Cancelled++
		}
	}
	return h
}

// Cancel asks a job to stop. A queued job cancels immediately; a running
// job drains (its in-flight cells checkpoint, unfinished cells journal as
// resumable) and reaches the cancelled state when the scheduler lets go.
// Cancelling a terminal job is a conflict.
func (d *Daemon) Cancel(id string) (api.Job, error) {
	j, ok := d.lookup(id)
	if !ok {
		return api.Job{}, fmt.Errorf("unknown job %q", id)
	}
	j.mu.Lock()
	switch j.state {
	case api.StateDone, api.StateFailed, api.StateCancelled:
		state := j.state
		j.mu.Unlock()
		return j.view(), fmt.Errorf("job %s is already %s: %w", id, state, errConflict)
	case api.StateQueued:
		if !j.closed {
			close(j.cancel)
			j.closed = true
		}
		j.mu.Unlock()
		d.transition(j, api.StateCancelled, func(j *job) {
			j.exitCode = sweep.ExitDrained
			j.class = faults.Class(faults.ErrDrained)
			j.errMsg = "cancelled before starting"
		})
		return j.view(), nil
	default: // running
		if !j.closed {
			close(j.cancel)
			j.closed = true
		}
		j.mu.Unlock()
		return j.view(), nil
	}
}

// errConflict marks cancellations of already-terminal jobs.
var errConflict = errors.New("conflict")

// IsConflict reports whether a Cancel error was a terminal-state conflict
// (HTTP 409) rather than an unknown job (404).
func IsConflict(err error) bool { return errors.Is(err, errConflict) }

// Start launches the runner goroutine. Jobs execute one at a time, each
// using the configured scheduler width internally — the same resource shape
// as one mbpsweep process.
func (d *Daemon) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.run()
	}()
}

// Drain begins graceful shutdown: no new submissions, no new jobs started,
// the in-flight job checkpoints and journals its unfinished cells as
// resumable. Safe to call more than once.
func (d *Daemon) Drain() {
	d.drainOnce.Do(func() { close(d.draining) })
}

// Close drains (if not already draining) and waits for the runner to stop.
func (d *Daemon) Close() error {
	d.Drain()
	d.wg.Wait()
	return nil
}

// Interrupted reports whether any admitted work did not finish: a queued
// job left behind, or a job cancelled by the drain. The mbpd process exits
// with the drained code (4) when true, matching mbpsweep's contract.
func (d *Daemon) Interrupted() bool {
	for _, j := range d.Jobs() {
		switch j.State {
		case api.StateQueued, api.StateRunning:
			return true
		case api.StateCancelled:
			return true
		}
	}
	return false
}

// run is the scheduler loop: pick the oldest queued job, execute it, repeat
// until drain.
func (d *Daemon) run() {
	for {
		j := d.nextQueued()
		if j == nil {
			select {
			case <-d.wake:
				continue
			case <-d.draining:
				return
			}
		}
		select {
		case <-d.draining:
			return
		default:
		}
		d.runJob(j)
	}
}

func (d *Daemon) nextQueued() *job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range d.order {
		j := d.jobs[id]
		j.mu.Lock()
		queued := j.state == api.StateQueued
		j.mu.Unlock()
		if queued {
			return j
		}
	}
	return nil
}

// runJob executes one sweep through the shared pipeline and stores both
// renderings of its result. Failures are classified with the faults
// taxonomy; a drain (job cancel or daemon shutdown) ends in the cancelled
// state with the drained class and exit code 4.
func (d *Daemon) runJob(j *job) {
	j.mu.Lock()
	resolved := j.resolved
	spec := j.spec
	cancel := j.cancel
	metrics := obs.New()
	j.metrics = metrics
	j.mu.Unlock()

	d.transition(j, api.StateRunning, nil)
	d.logf("daemon: job %s running (%s, [%d..%d])", j.id, spec.Predictor, spec.From, spec.To)

	if resolved == nil {
		// Recovered from disk: re-resolve. The traces must still exist on
		// this host; digests re-key the journal cells identically.
		r, err := spec.Resolve()
		if err != nil {
			d.failJob(j, err)
			return
		}
		r.AttachDigests()
		resolved = r
	}

	jnl, err := journal.Open(filepath.Join(d.jobDir(j.id), "journal"))
	if err != nil {
		d.failJob(j, fmt.Errorf("opening job journal: %w", err))
		return
	}

	// Merge the per-job cancel and the daemon-wide drain into the single
	// drain channel the scheduler watches.
	drain := make(chan struct{})
	stopMerge := make(chan struct{})
	var mergeWG sync.WaitGroup
	mergeWG.Add(1)
	go func() {
		defer mergeWG.Done()
		select {
		case <-cancel:
		case <-d.draining:
		case <-stopMerge:
			return
		}
		close(drain)
	}()

	mode, _ := spec.Mode() // validated at resolve time
	sets, runErr := resolved.Run(sweep.RunOptions{
		Jobs:    d.cfg.Jobs,
		Cache:   d.cache,
		Policy:  sim.Policy{Mode: mode, Retries: spec.Retries, Backoff: d.cfg.Backoff},
		Metrics: metrics,
		Journal: jnl, CheckpointEvery: d.cfg.CheckpointEvery,
		Drain: drain, CellTimeout: d.cfg.CellTimeout,
	})
	close(stopMerge)
	mergeWG.Wait()
	if err := jnl.Close(); err != nil {
		d.logf("daemon: job %s: closing journal: %v", j.id, err)
	}

	if runErr != nil {
		if errors.Is(runErr, faults.ErrDrained) {
			d.transition(j, api.StateCancelled, func(j *job) {
				j.exitCode = sweep.ExitDrained
				j.class = faults.Class(faults.ErrDrained)
				j.errMsg = runErr.Error()
			})
			d.logf("daemon: job %s drained", j.id)
			return
		}
		d.failJob(j, runErr)
		return
	}

	result, exit := renderResult(resolved, sets)
	// Both renderings persist verbatim (not re-marshalled), so the result
	// endpoint serves byte-identical output across daemon restarts.
	if err := writeBytesAtomic(filepath.Join(d.jobDir(j.id), "result.json"), result.JSON); err != nil {
		d.logf("daemon: job %s: storing result: %v", j.id, err)
	}
	if err := writeBytesAtomic(filepath.Join(d.jobDir(j.id), "result.txt"), []byte(result.Text)); err != nil {
		d.logf("daemon: job %s: storing result: %v", j.id, err)
	}
	state := api.StateDone
	mutate := func(j *job) {
		j.exitCode = exit
		j.result = &result
	}
	if exit == sweep.ExitDrained {
		// Under -policy skip a drain surfaces as resumable failure rows in
		// an otherwise rendered report: keep the report, but the job is
		// cancelled (resubmitting revives it and replays the journal).
		state = api.StateCancelled
		mutate = func(j *job) {
			j.exitCode = exit
			j.class = faults.Class(faults.ErrDrained)
			j.result = &result
		}
	}
	d.transition(j, state, mutate)
	d.logf("daemon: job %s %s (exit %d)", j.id, state, exit)
}

func (d *Daemon) failJob(j *job, err error) {
	d.transition(j, api.StateFailed, func(j *job) {
		j.exitCode = sweep.ExitTotal
		j.errMsg = err.Error()
		j.class = faults.Class(err)
	})
	d.logf("daemon: job %s failed: %v", j.id, err)
}

// renderResult runs the shared renderer twice — once for the JSON document,
// once for the text table — so mbpctl can print either form byte-identically
// to a local mbpsweep run. Both renderings agree on the exit code.
func renderResult(r *sweep.Resolved, sets []*sim.SetResult) (api.JobResult, int) {
	var jsonBuf, textBuf, errBuf bytes.Buffer
	exit := sweep.Render(&jsonBuf, &errBuf, r.Specs, sets, len(r.Sources), true)
	sweep.Render(&textBuf, &errBuf, r.Specs, sets, len(r.Sources), false)
	return api.JobResult{
		ExitCode: exit,
		JSON:     json.RawMessage(jsonBuf.Bytes()),
		Text:     textBuf.String(),
	}, exit
}
