package prof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStartWritesBothProfiles: with both paths set, stop succeeds and
// leaves a non-empty CPU and heap profile behind.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

// TestStartCPUPathError: an uncreatable CPU profile is reported by Start,
// and no profile is left running: a second Start succeeds.
func TestStartCPUPathError(t *testing.T) {
	dir := t.TempDir()
	_, err := Start(filepath.Join(dir, "missing", "cpu.pprof"), "")
	if err == nil || !strings.Contains(err.Error(), "cpu profile") {
		t.Fatalf("Start error = %v, want one naming the cpu profile", err)
	}
	stop, err := Start(filepath.Join(dir, "cpu.pprof"), "")
	if err != nil {
		t.Fatalf("second Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestStopMemPathError: an uncreatable heap profile is reported by Start,
// before the run, and the CPU profile Start began is stopped: a second
// Start succeeds.
func TestStopMemPathError(t *testing.T) {
	dir := t.TempDir()
	_, err := Start(filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "missing", "mem.pprof"))
	if err == nil || !strings.Contains(err.Error(), "mem profile") {
		t.Fatalf("Start error = %v, want one naming the mem profile", err)
	}
	stop, err := Start(filepath.Join(dir, "cpu2.pprof"), "")
	if err != nil {
		t.Fatalf("second Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}
