package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mbplib/internal/api"
	"mbplib/internal/bench"
	"mbplib/internal/bp"
	"mbplib/internal/daemon"
	"mbplib/internal/tracegen"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so percentile must sort
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 50, 0, false}, // rank 10 leaves 9 beyond
		{20, 50, 10, true}, // rank 10 leaves 10 beyond
		{99, 90, 0, false}, // rank 90 leaves 9 beyond
		{100, 90, 90, true},
		{1000, 99, 990, true},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestRatioCoverAndTail(t *testing.T) {
	if got := ratio(3, 2); got != 1.5 {
		t.Errorf("ratio(3, 2) = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0 for a layer that did no work", got)
	}
	if got := coverFrac([]float64{1, 2}, 4, 1); got != 0.75 {
		t.Errorf("coverFrac one consumer = %v, want 0.75", got)
	}
	if got := coverFrac([]float64{3}, 2, 2); got != 0.75 {
		t.Errorf("coverFrac two consumers = %v, want 0.75", got)
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Two workers: the final cells end at 5 and 7, so the first worker
	// idles from 5 and the tail is 2.
	if got := tailSeconds([]float64{7, 1, 5, 2}, 2); got != 2 {
		t.Errorf("tailSeconds = %v, want 2", got)
	}
	if got := tailSeconds([]float64{1, 2}, 1); got != 0 {
		t.Errorf("tailSeconds one worker = %v, want 0", got)
	}
}

// tinyTable3 writes one small trace in both Table III formats.
func tinyTable3(t *testing.T) (string, table3Cell) {
	t.Helper()
	dir := t.TempDir()
	specs, err := tracegen.Suite("cbp5-train", 2000)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	if _, err := materialise(dir, []traceJob{{spec: spec, formats: []string{fmtSBBTMLZ, fmtBT9Gz}}}); err != nil {
		t.Fatal(err)
	}
	return dir, table3Cell{
		spec: "gshare", branches: spec.Branches,
		sbbt: filepath.Join(dir, spec.Name+fmtSBBTMLZ),
		bt9:  filepath.Join(dir, spec.Name+fmtBT9Gz),
	}
}

func TestTable3CellChecksAndCountsCorruptTrace(t *testing.T) {
	_, cell := tinyTable3(t)
	h := &harness{log: io.Discard}
	ph := &phase{}
	if _, _, ok := runTable3Cell(h, ph, cell, true, nil, nil); !ok || ph.failed != 0 {
		t.Fatalf("intact cell: ok=%v failed=%d", ok, ph.failed)
	}
	data, err := os.ReadFile(cell.sbbt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cell.sbbt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := runTable3Cell(h, ph, cell, false, nil, nil); ok {
		t.Fatal("a truncated trace passed")
	}
	if ph.attempted != 2 || ph.failed != 1 {
		t.Errorf("attempted %d failed %d, want 2 and 1", ph.attempted, ph.failed)
	}
}

func TestRefusedRequestsAreErrors(t *testing.T) {
	d, err := daemon.New(daemon.Config{DataDir: t.TempDir(), Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := &client{base: srv.URL, http: srv.Client()}
	// A glob matching no trace is refused with 400 by the daemon.
	missing := api.SweepSpec{Traces: filepath.Join(t.TempDir(), "*.sbbt.mlz"), Predictor: "gshare:h=%d", From: 1, To: 1}
	if _, _, err := c.fresh(missing); err == nil {
		t.Error("fresh submit of an invalid spec returned no error")
	}
	if _, _, err := c.hit(missing); err == nil {
		t.Error("resubmit of an invalid spec returned no error")
	}
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"api_version":1,"error":{"code":"queue_full","message":"full"}}`, http.StatusServiceUnavailable)
	}))
	defer busy.Close()
	c = &client{base: busy.URL, http: busy.Client()}
	if _, err := c.result("abc"); err == nil {
		t.Error("a 503 result returned no error")
	}
}

func TestRefusedRequestsCountAsFailed(t *testing.T) {
	// No trace matches the specs' glob, so the daemon refuses every
	// submit with 400 and every request of the loop is a failure.
	h := &harness{dir: t.TempDir(), work: t.TempDir(), seed: 1, seconds: 200 * time.Millisecond, jobs: 2, log: io.Discard}
	ph, err := measureDaemon(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted < 2 || ph.failed != ph.attempted {
		t.Errorf("attempted %d failed %d, want every request failed", ph.attempted, ph.failed)
	}
}

func TestDecodeClocksAreSelfTimes(t *testing.T) {
	dir := t.TempDir()
	jobs := mixedTraces(bench.SweepSpecs(2, 20_000), 1, 1)
	if _, err := materialise(dir, jobs); err != nil {
		t.Fatal(err)
	}
	l := newLayers()
	r, closer, err := openTrace(filepath.Join(dir, jobs[1].spec.Name+jobs[1].formats[0]), l)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	dst := make([]bp.Event, 4096)
	for {
		if _, err := bp.ReadBatch(r, dst); err != nil {
			break
		}
	}
	if got := l.sbbtEvents.Load(); got != 20_000 {
		t.Errorf("sbbt events %d, want 20000", got)
	}
	if l.sbbtNs.Load() <= 0 || l.compressNs.Load() <= 0 {
		t.Errorf("decode clocks sbbt %d ns, compress %d ns: both must be positive self times", l.sbbtNs.Load(), l.compressNs.Load())
	}
}

func TestBenchmarkJSONListsEveryPerLayerMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory:", err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	defs := perLayerMetrics()
	if len(spec.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(defs))
	}
	for i, d := range defs {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, got, d)
		}
	}
}
