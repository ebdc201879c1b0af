// Package obs is the observability layer of the simulation pipeline: atomic
// counters, monotonic stage timers, fixed-bucket log-scale histograms and
// per-worker utilisation stats, collected into a versioned Snapshot that the
// commands serialise next to their results.
//
// The package is a zero-dependency leaf (standard library only) so every
// layer of the pipeline — the simulator, the trace cache, the sweep
// scheduler, the bench harness — can depend on it without cycles.
//
// The collector contract (see DESIGN.md, "Observability"):
//
//   - A nil *Collector is the disabled state. Every method of every type in
//     this package is safe on a nil receiver and is a zero-allocation no-op,
//     so instrumented hot loops carry no branch-prediction-visible cost and
//     no allocations when metrics are off.
//   - Collection never changes simulation results: collectors only observe.
//     Result output with metrics on is byte-identical to metrics off.
//   - All mutation is lock-free (atomics); many goroutines may write the
//     same collector concurrently. Snapshot reads each value atomically —
//     the snapshot is per-value consistent, not a global atomic cut, which
//     is sufficient for monotonic counters (documented in DESIGN.md).
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// SnapshotVersion identifies the metrics JSON schema. Bump it when a field
// changes meaning, so downstream parsers can reject what they don't know.
const SnapshotVersion = 1

// Stage enumerates the timed stages of the simulation pipeline.
type Stage int

// Pipeline stages.
const (
	// StageRead is time spent inside the trace reader: file read,
	// decompression and packet decode. On the batched pipeline it accrues on
	// the prefetch producer goroutine; on cache loads it accrues on the
	// loading worker.
	StageRead Stage = iota
	// StageWarmup is consumer time simulating batches that lie wholly
	// inside the warm-up window (predictor trains, mispredictions not
	// counted). Attribution is at batch granularity: a batch straddling the
	// warm-up boundary counts toward StageSim.
	StageWarmup
	// StageSim is consumer time in the predict+train+track loop past
	// warm-up.
	StageSim
	// StagePrefetchStall is consumer time blocked waiting for the next
	// decoded batch — non-zero when decode is the bottleneck.
	StagePrefetchStall
	// StageProduceStall is producer time blocked waiting for a free buffer
	// or for the consumer to accept a batch — non-zero when simulation is
	// the bottleneck (the healthy state).
	StageProduceStall
	// StageCacheWait is worker time blocked waiting for another worker's
	// in-flight load of the same trace (single-flight coalescing).
	StageCacheWait
	// StageJournal is worker time spent making sweep results durable:
	// encoding, writing and fsyncing cell records and in-flight checkpoints
	// of the resume journal.
	StageJournal
	// StageResult is consumer time assembling a finished run's Result: the
	// summary metrics, the predictor's metadata and statistics, and, for a
	// single run (not a sweep cell), the most_failed report.
	StageResult
	numStages
)

// stageNames indexes Stage for snapshots; keep in sync with the constants.
var stageNames = [numStages]string{
	"read", "warmup", "sim", "prefetch_stall", "produce_stall", "cache_wait", "journal",
	"result",
}

// Ctr enumerates the counters of the pipeline.
type Ctr int

// Pipeline counters. The cache_* counters mirror tracecache.Stats so live
// progress can read them without reaching into the cache.
const (
	// CtrEvents is dynamic branch events simulated, each stream event once.
	CtrEvents Ctr = iota
	// CtrBatches is decoded batches delivered by readers.
	CtrBatches
	// CtrCellsDone is completed (trace, predictor) cells of a sweep.
	CtrCellsDone
	// CtrCellsTotal is the size of the sweep matrix (a gauge, set once).
	CtrCellsTotal
	// CtrQueueDepth is the number of sweep cells not yet completed (gauge).
	CtrQueueDepth
	CtrCacheHits
	CtrCacheMisses
	CtrCacheEvictions
	// CtrCacheCoalesced is Acquire calls that joined another worker's
	// in-flight load instead of starting their own (single-flight sharing).
	CtrCacheCoalesced
	CtrCacheTooBig
	// CtrCacheBytes is the decoded bytes currently resident (gauge).
	CtrCacheBytes
	// CtrJournalRecords is records durably appended to the sweep journal
	// (finished cells plus in-flight checkpoints).
	CtrJournalRecords
	// CtrJournalBytes is bytes appended to the sweep journal, framing
	// included — the numerator of the journal-overhead bench stage.
	CtrJournalBytes
	// CtrCheckpoints is in-flight cell checkpoints written to the journal.
	CtrCheckpoints
	// CtrCellsReplayed is sweep cells satisfied from the journal of a
	// previous run without simulating (gauge, set once before dispatch).
	CtrCellsReplayed
	// CtrCellsDrained is sweep cells abandoned by a graceful drain —
	// never started, or interrupted and checkpointed for resume.
	CtrCellsDrained
	// CtrDraining is 1 once a graceful drain was requested (gauge).
	CtrDraining
	// CtrDispatchKernel is simulated batches dispatched to a predictor's
	// native BatchPredictor kernel (the fused TrainBatch fast path).
	CtrDispatchKernel
	// CtrDispatchScalar is simulated batches that went through the scalar
	// Predict/Train/Track loop instead: the predictor has no kernel, or the
	// batch straddles a warm-up/limit boundary and takes the careful path.
	CtrDispatchScalar
	numCtrs
)

// String returns the counter's snapshot key, as it appears in
// Snapshot.Counters and the -metrics output.
func (c Ctr) String() string { return ctrNames[c] }

// ctrNames indexes Ctr for snapshots; keep in sync with the constants.
var ctrNames = [numCtrs]string{
	"events", "batches", "cells_done", "cells_total", "queue_depth",
	"cache_hits", "cache_misses", "cache_evictions", "cache_coalesced",
	"cache_too_big", "cache_bytes",
	"journal_records", "journal_bytes", "checkpoints",
	"cells_replayed", "cells_drained", "draining",
	"dispatch_kernel", "dispatch_scalar",
}

// Hist enumerates the histograms of the pipeline.
type Hist int

// Pipeline histograms.
const (
	// HistBatchReadNs is the per-batch reader latency (decompress+decode).
	HistBatchReadNs Hist = iota
	// HistCellNs is the per-cell duration of a sweep (one trace through one
	// predictor).
	HistCellNs
	// HistBatchEvents is the event count of each simulated batch, recorded
	// at dispatch so -metrics shows how much of a run actually moved in
	// kernel-sized batches versus short edge batches.
	HistBatchEvents
	numHists
)

// String returns the histogram's snapshot key, as it appears in
// Snapshot.Histograms and the -metrics output.
func (h Hist) String() string { return histNames[h] }

// histNames indexes Hist for snapshots; keep in sync with the constants.
var histNames = [numHists]string{"batch_read_ns", "cell_ns", "batch_events"}

// Counter is a monotonically increasing (or gauge-style Store'd) uint64.
// The zero value is ready to use; all methods are nil-safe no-ops.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store sets the counter to n (gauge semantics).
func (c *Counter) Store(n uint64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Load returns the current value, 0 on a nil counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Timer accumulates wall-clock durations of one pipeline stage. Durations
// from concurrent goroutines sum, so a stage's total can exceed the run's
// wall time on a parallel sweep (it is CPU-seconds, not elapsed seconds).
type Timer struct {
	ns    atomic.Int64
	count atomic.Uint64
}

// Add accrues one observation of d.
func (t *Timer) Add(d time.Duration) {
	if t != nil {
		t.ns.Add(int64(d))
		t.count.Add(1)
	}
}

// Since accrues the time elapsed since start, as returned by Collector.Now.
// On a disabled collector start is the zero Time and t is nil, so nothing is
// computed.
func (t *Timer) Since(start time.Time) {
	if t != nil {
		t.Add(time.Since(start))
	}
}

// Total returns the accumulated duration, 0 on a nil timer.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Count returns how many observations accrued, 0 on a nil timer.
func (t *Timer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// histBuckets is the fixed bucket count of every histogram: bucket i counts
// values v with bits.Len64(v) == i, i.e. power-of-two ranges [2^(i-1), 2^i).
// 64 buckets cover the full uint64 range with no configuration and no
// allocation, which is what keeps Observe wait-free.
const histBuckets = 65

// Histogram counts observations into fixed log2-scale buckets. The zero
// value is ready to use; all methods are nil-safe no-ops.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// WorkerStats is the per-worker record of a parallel sweep.
type WorkerStats struct {
	busyNs atomic.Int64
	cells  atomic.Uint64
}

// Record accrues d of worker time in which cells cells completed.
func (w *WorkerStats) Record(d time.Duration, cells uint64) {
	if w != nil {
		w.busyNs.Add(int64(d))
		w.cells.Add(cells)
	}
}

// Collector aggregates every metric of one run or sweep. Construct with New;
// a nil *Collector is the disabled state and all operations on it (and on
// anything it returns) are zero-allocation no-ops.
type Collector struct {
	start  time.Time
	stages [numStages]Timer
	ctrs   [numCtrs]Counter
	hists  [numHists]Histogram

	mu      sync.Mutex
	workers []*WorkerStats
}

// New returns an enabled collector whose wall clock starts now.
func New() *Collector {
	return &Collector{start: time.Now()}
}

// Enabled reports whether the collector is collecting.
func (c *Collector) Enabled() bool { return c != nil }

// Now returns the current time on an enabled collector and the zero Time on
// a disabled one, so hot paths skip the clock read entirely when metrics are
// off. Pair with Timer.Since.
func (c *Collector) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stage returns the timer of stage s (nil when disabled).
func (c *Collector) Stage(s Stage) *Timer {
	if c == nil {
		return nil
	}
	return &c.stages[s]
}

// Ctr returns counter k (nil when disabled).
func (c *Collector) Ctr(k Ctr) *Counter {
	if c == nil {
		return nil
	}
	return &c.ctrs[k]
}

// Hist returns histogram h (nil when disabled).
func (c *Collector) Hist(h Hist) *Histogram {
	if c == nil {
		return nil
	}
	return &c.hists[h]
}

// Worker returns the stats slot of worker i, growing the registry as needed.
// Nil when disabled. Slots are stable: the same i always yields the same
// *WorkerStats.
func (c *Collector) Worker(i int) *WorkerStats {
	if c == nil || i < 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.workers) <= i {
		c.workers = append(c.workers, &WorkerStats{})
	}
	return c.workers[i]
}

// StageSnapshot is one stage's totals in a Snapshot.
type StageSnapshot struct {
	// Seconds is accumulated stage time; on parallel runs it sums across
	// goroutines (CPU-seconds), so it can exceed WallSeconds.
	Seconds float64 `json:"seconds"`
	// Count is how many timed sections accrued.
	Count uint64 `json:"count"`
}

// HistBucket is one non-empty bucket of a histogram snapshot.
type HistBucket struct {
	// Le is the bucket's exclusive upper bound (a power of two); values v in
	// the bucket satisfy Le/2 <= v < Le (the first bucket holds v == 0).
	Le uint64 `json:"le"`
	// Count is the number of observations in the bucket.
	Count uint64 `json:"count"`
}

// HistSnapshot is one histogram's non-empty buckets plus totals.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// WorkerSnapshot is one worker's share of a sweep.
type WorkerSnapshot struct {
	Worker int `json:"worker"`
	// Cells is how many (trace, predictor) cells the worker completed.
	Cells uint64 `json:"cells"`
	// BusySeconds is time spent simulating (not waiting for work).
	BusySeconds float64 `json:"busy_seconds"`
	// Utilization is BusySeconds over the collector's wall time, in [0, 1]
	// (modulo clock skew).
	Utilization float64 `json:"utilization"`
}

// Snapshot is the versioned serialisable state of a collector. Map keys
// serialise sorted (encoding/json), so two snapshots of the same state are
// byte-identical.
type Snapshot struct {
	Version     int                      `json:"metrics_version"`
	WallSeconds float64                  `json:"wall_seconds"`
	Stages      map[string]StageSnapshot `json:"stages,omitempty"`
	Counters    map[string]uint64        `json:"counters,omitempty"`
	Histograms  map[string]HistSnapshot  `json:"histograms,omitempty"`
	Workers     []WorkerSnapshot         `json:"workers,omitempty"`
}

// Snapshot captures the collector's current state. Safe to call while
// writers are active: each value is read atomically (per-value consistency).
// A nil collector yields an empty versioned snapshot.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{Version: SnapshotVersion}
	if c == nil {
		return s
	}
	wall := time.Since(c.start).Seconds()
	s.WallSeconds = wall
	for i := range c.stages {
		t := &c.stages[i]
		if t.Count() == 0 {
			continue
		}
		if s.Stages == nil {
			s.Stages = make(map[string]StageSnapshot, numStages)
		}
		s.Stages[stageNames[i]] = StageSnapshot{Seconds: t.Total().Seconds(), Count: t.Count()}
	}
	for i := range c.ctrs {
		v := c.ctrs[i].Load()
		if v == 0 {
			continue
		}
		if s.Counters == nil {
			s.Counters = make(map[string]uint64, numCtrs)
		}
		s.Counters[ctrNames[i]] = v
	}
	for i := range c.hists {
		h := &c.hists[i]
		var hs HistSnapshot
		for b := range h.buckets {
			n := h.buckets[b].Load()
			if n == 0 {
				continue
			}
			le := uint64(0)
			switch {
			case b >= 64: // top bucket: v >= 2^63, no finite power-of-two bound
				le = ^uint64(0)
			case b > 0:
				le = 1 << b // bits.Len64(v) == b  =>  v < 2^b
			}
			hs.Buckets = append(hs.Buckets, HistBucket{Le: le, Count: n})
			hs.Count += n
		}
		if hs.Count == 0 {
			continue
		}
		hs.Sum = h.sum.Load()
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistSnapshot, numHists)
		}
		s.Histograms[histNames[i]] = hs
	}
	c.mu.Lock()
	workers := make([]*WorkerStats, len(c.workers))
	copy(workers, c.workers)
	c.mu.Unlock()
	for i, w := range workers {
		ws := WorkerSnapshot{
			Worker:      i,
			Cells:       w.cells.Load(),
			BusySeconds: time.Duration(w.busyNs.Load()).Seconds(),
		}
		if wall > 0 {
			ws.Utilization = ws.BusySeconds / wall
		}
		s.Workers = append(s.Workers, ws)
	}
	return s
}
