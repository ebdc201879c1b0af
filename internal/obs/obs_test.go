package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorBasics(t *testing.T) {
	c := New()
	c.Stage(StageRead).Add(2 * time.Second)
	c.Stage(StageRead).Add(time.Second)
	c.Ctr(CtrEvents).Add(10)
	c.Ctr(CtrEvents).Add(5)
	c.Ctr(CtrCacheBytes).Store(42)
	c.Hist(HistBatchReadNs).Observe(3)
	c.Hist(HistBatchReadNs).Observe(1000)
	c.Worker(1).Record(time.Second, 1)
	c.Worker(0).Record(2*time.Second, 1)

	if got := c.Stage(StageRead).Total(); got != 3*time.Second {
		t.Errorf("StageRead total = %v, want 3s", got)
	}
	if got := c.Stage(StageRead).Count(); got != 2 {
		t.Errorf("StageRead count = %d, want 2", got)
	}
	if got := c.Ctr(CtrEvents).Load(); got != 15 {
		t.Errorf("events = %d, want 15", got)
	}
	if got := c.Ctr(CtrCacheBytes).Load(); got != 42 {
		t.Errorf("cache bytes = %d, want 42", got)
	}

	s := c.Snapshot()
	if s.Version != SnapshotVersion {
		t.Errorf("version = %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Stages["read"].Count != 2 || s.Stages["read"].Seconds != 3 {
		t.Errorf("read stage snapshot = %+v", s.Stages["read"])
	}
	if s.Counters["events"] != 15 {
		t.Errorf("counters = %v", s.Counters)
	}
	if _, ok := s.Stages["sim"]; ok {
		t.Errorf("untouched stage serialized: %v", s.Stages)
	}
	h := s.Histograms["batch_read_ns"]
	if h.Count != 2 || h.Sum != 1003 {
		t.Errorf("histogram = %+v", h)
	}
	// 3 has bit length 2 -> bucket le=4; 1000 has bit length 10 -> le=1024.
	want := []HistBucket{{Le: 4, Count: 1}, {Le: 1024, Count: 1}}
	if len(h.Buckets) != 2 || h.Buckets[0] != want[0] || h.Buckets[1] != want[1] {
		t.Errorf("buckets = %v, want %v", h.Buckets, want)
	}
	if len(s.Workers) != 2 {
		t.Fatalf("workers = %v", s.Workers)
	}
	if s.Workers[0].BusySeconds != 2 || s.Workers[0].Cells != 1 || s.Workers[1].BusySeconds != 1 {
		t.Errorf("worker snapshots = %+v", s.Workers)
	}
	if s.Workers[0].Utilization <= 0 {
		t.Errorf("worker 0 utilization = %v, want > 0", s.Workers[0].Utilization)
	}
}

// TestNilCollectorNoOps: the whole disabled surface must be callable and
// inert — the contract instrumented code relies on.
func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	if !c.Now().IsZero() {
		t.Error("nil collector Now() is not the zero time")
	}
	c.Stage(StageSim).Add(time.Second)
	c.Stage(StageSim).Since(c.Now())
	c.Ctr(CtrEvents).Add(1)
	c.Ctr(CtrEvents).Store(1)
	c.Hist(HistCellNs).Observe(1)
	c.Hist(HistCellNs).ObserveDuration(time.Second)
	c.Worker(3).Record(time.Second, 1)
	if got := c.Stage(StageSim).Total(); got != 0 {
		t.Errorf("nil stage accumulated %v", got)
	}
	s := c.Snapshot()
	if s.Version != SnapshotVersion || s.Stages != nil || s.Counters != nil || s.Workers != nil {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
}

// TestDisabledCollectorZeroAlloc is the off-path guard: every operation an
// instrumented hot loop performs on a disabled collector must allocate
// nothing.
func TestDisabledCollectorZeroAlloc(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		start := c.Now()
		c.Stage(StageRead).Since(start)
		c.Stage(StageSim).Add(time.Second)
		c.Ctr(CtrEvents).Add(4096)
		c.Ctr(CtrCacheBytes).Store(1)
		c.Hist(HistBatchReadNs).ObserveDuration(time.Millisecond)
		c.Worker(0).Record(time.Millisecond, 1)
		_ = c.Enabled()
	})
	if allocs != 0 {
		t.Errorf("disabled collector ops allocate %v per run, want 0", allocs)
	}
}

// TestEnabledHotOpsZeroAlloc: the per-batch operations must not allocate
// even when enabled — Snapshot may allocate, the hot path may not.
func TestEnabledHotOpsZeroAlloc(t *testing.T) {
	c := New()
	w := c.Worker(0) // registered once, outside the hot loop
	allocs := testing.AllocsPerRun(1000, func() {
		c.Stage(StageRead).Add(time.Millisecond)
		c.Ctr(CtrEvents).Add(4096)
		c.Hist(HistBatchReadNs).Observe(1 << 20)
		w.Record(time.Millisecond, 1)
	})
	if allocs != 0 {
		t.Errorf("enabled hot ops allocate %v per run, want 0", allocs)
	}
}

// TestConcurrentWriters exercises the lock-free paths under -race and
// checks the totals add up.
func TestConcurrentWriters(t *testing.T) {
	c := New()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Ctr(CtrEvents).Add(1)
				c.Stage(StageSim).Add(time.Microsecond)
				c.Hist(HistCellNs).Observe(uint64(i))
				c.Worker(g%4).Record(time.Microsecond, 1)
				if i%100 == 0 {
					c.Snapshot() // concurrent reads must be safe
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Ctr(CtrEvents).Load(); got != goroutines*per {
		t.Errorf("events = %d, want %d", got, goroutines*per)
	}
	s := c.Snapshot()
	if s.Stages["sim"].Count != goroutines*per {
		t.Errorf("sim stage count = %d, want %d", s.Stages["sim"].Count, goroutines*per)
	}
	if s.Histograms["cell_ns"].Count != goroutines*per {
		t.Errorf("histogram count = %d", s.Histograms["cell_ns"].Count)
	}
	var cells uint64
	for _, w := range s.Workers {
		cells += w.Cells
	}
	if cells != goroutines*per {
		t.Errorf("worker cells = %d, want %d", cells, goroutines*per)
	}
}

// TestSnapshotJSONDeterministic: the same state serialises to the same
// bytes (map keys sort), so metrics sections diff cleanly.
func TestSnapshotJSONDeterministic(t *testing.T) {
	c := New()
	c.Stage(StageRead).Add(time.Second)
	c.Stage(StageSim).Add(time.Second)
	for k := Ctr(0); k < numCtrs; k++ {
		c.Ctr(k).Add(uint64(k) + 1)
	}
	s := c.Snapshot()
	a, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("snapshot JSON not deterministic:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"metrics_version":1`) {
		t.Errorf("snapshot JSON missing version: %s", a)
	}
}

func TestHistogramTopBucket(t *testing.T) {
	c := New()
	c.Hist(HistCellNs).Observe(^uint64(0)) // bit length 64 -> top bucket
	h := c.Snapshot().Histograms["cell_ns"]
	if len(h.Buckets) != 1 || h.Buckets[0].Le != ^uint64(0) || h.Buckets[0].Count != 1 {
		t.Errorf("top bucket = %+v", h.Buckets)
	}
}

func TestRenderProgress(t *testing.T) {
	c := New()
	c.Ctr(CtrCellsDone).Add(4)
	c.Ctr(CtrCellsTotal).Store(16)
	c.Ctr(CtrEvents).Add(2_000_000)
	c.Ctr(CtrCacheHits).Add(3)
	c.Ctr(CtrCacheMisses).Add(1)
	line := RenderProgress(c.Snapshot(), 2*time.Second)
	for _, want := range []string{"4/16 cells", "1.0M ev/s", "cache 75.0% hit", "ETA 6s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	// Completed sweeps report the total time, not an ETA.
	c.Ctr(CtrCellsDone).Add(12)
	line = RenderProgress(c.Snapshot(), 2*time.Second)
	if !strings.Contains(line, "done in 2s") {
		t.Errorf("final line %q missing completion time", line)
	}
}

func TestStartProgressWritesAndStops(t *testing.T) {
	var buf bytes.Buffer
	c := New()
	c.Ctr(CtrCellsTotal).Store(4)
	c.Ctr(CtrCellsDone).Add(4)
	stop := StartProgress(&buf, c, 10*time.Millisecond)
	time.Sleep(35 * time.Millisecond)
	stop()
	out := buf.String()
	if !strings.Contains(out, "4/4 cells") {
		t.Errorf("progress output %q missing cells", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("progress output does not end with newline: %q", out)
	}
	// Disabled reporter: no writes, stop is a no-op.
	var silent bytes.Buffer
	StartProgress(&silent, nil, time.Millisecond)()
	if silent.Len() != 0 {
		t.Errorf("nil-collector progress wrote %q", silent.String())
	}
}
