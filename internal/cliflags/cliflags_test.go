package cliflags

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbplib/internal/obs"
)

func TestValidateWorkers(t *testing.T) {
	cases := []struct {
		j  int
		ok bool
	}{
		{1, true}, {8, true}, {0, false}, {-1, false}, {-100, false},
	}
	for _, c := range cases {
		err := Workers(c.j)
		if (err == nil) != c.ok {
			t.Errorf("Workers(%d) = %v, want ok=%v", c.j, err, c.ok)
		}
	}
}

func TestValidateCacheBytes(t *testing.T) {
	cases := []struct {
		b  int64
		ok bool
	}{
		{0, true}, {1, true}, {1 << 30, true}, {-1, false}, {-1 << 20, false},
	}
	for _, c := range cases {
		err := CacheBytes(c.b)
		if (err == nil) != c.ok {
			t.Errorf("CacheBytes(%d) = %v, want ok=%v", c.b, err, c.ok)
		}
	}
}

func TestValidateMostFailed(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{
		{0, true}, {1, true}, {20, true}, {-1, false}, {-3, false},
	} {
		err := MostFailed(c.n)
		if (err == nil) != c.ok {
			t.Errorf("MostFailed(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
}

func TestCacheBudget(t *testing.T) {
	if got := CacheBudget(0); got != -1 {
		t.Errorf("CacheBudget(0) = %d, want -1 (disable)", got)
	}
	if got := CacheBudget(512); got != 512 {
		t.Errorf("CacheBudget(512) = %d, want 512", got)
	}
}

func TestMetricsDisabled(t *testing.T) {
	var errw bytes.Buffer
	m := NewMetrics("", false, &errw)
	if m.Collector() != nil {
		t.Error("collector enabled without -metrics or -progress")
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if errw.Len() != 0 {
		t.Errorf("disabled metrics wrote %q", errw.String())
	}
}

func TestMetricsToStderr(t *testing.T) {
	var errw bytes.Buffer
	m := NewMetrics("-", false, &errw)
	col := m.Collector()
	if col == nil {
		t.Fatal("no collector with -metrics")
	}
	col.Ctr(obs.CtrEvents).Add(7)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(errw.Bytes(), &snap); err != nil {
		t.Fatalf("metrics output is not JSON: %v\n%s", err, errw.String())
	}
	if snap.Version != obs.SnapshotVersion || snap.Counters["events"] != 7 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestMetricsToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var errw bytes.Buffer
	m := NewMetrics(path, false, &errw)
	m.Collector().Ctr(obs.CtrCellsDone).Add(3)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading metrics file: %v", err)
	}
	if !strings.Contains(string(data), `"cells_done": 3`) {
		t.Errorf("metrics file missing counters:\n%s", data)
	}
	if errw.Len() != 0 {
		t.Errorf("file-destined metrics leaked to stderr: %q", errw.String())
	}
}

func TestMetricsProgressLine(t *testing.T) {
	var errw bytes.Buffer
	m := NewMetrics("", true, &errw)
	if m.Collector() == nil {
		t.Fatal("no collector with -progress")
	}
	m.Collector().Ctr(obs.CtrCellsTotal).Store(2)
	m.Collector().Ctr(obs.CtrCellsDone).Add(2)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !strings.Contains(errw.String(), "2/2 cells") {
		t.Errorf("no final progress line: %q", errw.String())
	}
}

func TestValidateVetOutput(t *testing.T) {
	cases := []struct {
		json, sarif bool
		ok          bool
	}{
		{false, false, true}, {true, false, true}, {false, true, true}, {true, true, false},
	}
	for _, c := range cases {
		err := ValidateVetOutput(c.json, c.sarif)
		if (err == nil) != c.ok {
			t.Errorf("ValidateVetOutput(%v, %v) = %v, want ok=%v", c.json, c.sarif, err, c.ok)
		}
	}
}

func TestSplitVetRules(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"purity", []string{"purity"}},
		{"v6,v7", []string{"v6", "v7"}},
		{" goroutine , atomic ", []string{"goroutine", "atomic"}},
		{"a,,b,", []string{"a", "b"}},
	}
	for _, c := range cases {
		got := SplitVetRules(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SplitVetRules(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitVetRules(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}
