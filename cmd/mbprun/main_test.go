package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbplib/internal/bench"
	"mbplib/internal/bp"
	"mbplib/internal/sbbt"
)

// normalizeRun parses mbprun -json output and zeroes the one nondeterministic
// field (wall-clock seconds) so runs at different -j compare equal.
func normalizeRun(t *testing.T, out []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if summary, ok := doc["summary"].(map[string]any); ok {
		summary["total_simulation_seconds"] = 0.0
	}
	norm, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestRunParallelEquivalence: mbprun -j 4 produces the same summary and
// failures JSON, and the same exit code, as -j 1.
func TestRunParallelEquivalence(t *testing.T) {
	dir := t.TempDir()
	if _, err := bench.PrepareSuite(dir, "cbp5-train", 2000, bench.Formats{SBBT: true}); err != nil {
		t.Fatal(err)
	}
	glob := filepath.Join(dir, "*.sbbt.mlz")
	for _, predictor := range []string{"bimodal", "gshare:t=14,h=8"} {
		args := []string{"-traces", glob, "-predictor", predictor, "-policy", "skip", "-json"}
		var seqOut, seqErr bytes.Buffer
		seqCode := run(append(args, "-j", "1"), &seqOut, &seqErr)
		var parOut, parErr bytes.Buffer
		parCode := run(append(args, "-j", "4"), &parOut, &parErr)
		if seqCode != 0 || parCode != 0 {
			t.Fatalf("%s: exit codes seq=%d par=%d (stderr: %s%s)", predictor, seqCode, parCode, seqErr.String(), parErr.String())
		}
		if s, p := normalizeRun(t, seqOut.Bytes()), normalizeRun(t, parOut.Bytes()); !bytes.Equal(s, p) {
			t.Errorf("%s: JSON differs between -j 1 and -j 4\nseq: %s\npar: %s", predictor, s, p)
		}
	}
}

// TestRunUsageErrors: flag mistakes exit 1.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-traces", "does-not-exist-*", "-policy", "bogus"},
		{"-traces", "does-not-exist-*"}, // no matching traces
	} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}

// TestRunFailFastErrorLine: a corrupt trace under -policy failfast prints
// one "mbprun: sim: trace ..." line naming it, the same at -j 1 and -j 4.
func TestRunFailFastErrorLine(t *testing.T) {
	dir := t.TempDir()
	if _, err := bench.PrepareSuite(dir, "cbp5-train", 1000, bench.Formats{SBBT: true}); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "zz-corrupt.sbbt")
	var buf bytes.Buffer
	w, err := sbbt.NewWriter(&buf, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w.Write(bp.Event{Branch: bp.Branch{IP: 0x1000 + uint64(i)*4, Target: 0x2000, Opcode: bp.OpCondJump}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[sbbt.HeaderSize] ^= 0x10 // a reserved bit in the first packet
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("mbprun: sim: trace %q: ", corrupt)
	for _, j := range []string{"1", "4"} {
		var out, errBuf bytes.Buffer
		code := run([]string{"-traces", filepath.Join(dir, "*.sbbt*"), "-j", j}, &out, &errBuf)
		if code != exitTotal {
			t.Errorf("-j %s: exit %d, want %d", j, code, exitTotal)
		}
		if !strings.HasPrefix(errBuf.String(), want) || strings.Count(errBuf.String(), "\n") != 1 {
			t.Errorf("-j %s: stderr %q, want one line starting %q", j, errBuf.String(), want)
		}
	}
}

// TestRunResumeKeysByPredictor: a journal written by one -predictor is
// never replayed for another; each predictor's cells are its own.
func TestRunResumeKeysByPredictor(t *testing.T) {
	dir := t.TempDir()
	if _, err := bench.PrepareSuite(dir, "cbp5-train", 1000, bench.Formats{SBBT: true}); err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()
	base := []string{"-traces", filepath.Join(dir, "*.sbbt.mlz"), "-json"}
	runJSON := func(args ...string) []byte {
		t.Helper()
		var out, errBuf bytes.Buffer
		if code := run(append(append([]string{}, base...), args...), &out, &errBuf); code != exitOK {
			t.Fatalf("mbprun %v: exit %d: %s", args, code, errBuf.String())
		}
		return normalizeRun(t, out.Bytes())
	}
	runJSON("-predictor", "bimodal", "-resume", jdir)
	fresh := runJSON("-predictor", "gshare:t=14,h=8")
	if resumed := runJSON("-predictor", "gshare:t=14,h=8", "-resume", jdir); !bytes.Equal(resumed, fresh) {
		t.Errorf("gshare over a bimodal journal differs from a fresh run\nresumed: %s\nfresh:   %s", resumed, fresh)
	}
}
