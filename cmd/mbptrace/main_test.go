package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbplib/internal/bench"
	"mbplib/internal/compress"
	"mbplib/internal/sbbt"
)

var update = flag.Bool("update", false, "rewrite the golden output files")

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenRecompressInfo locks the deterministic stdout of the recompress
// and info subcommands over a generated trace. Trace generation and MLZS
// compression are both deterministic, so the byte sizes in the report are
// stable across runs and platforms.
func TestGoldenRecompressInfo(t *testing.T) {
	dir := t.TempDir()
	ts, err := bench.PrepareSuite(dir, "cbp5-train", 2000, bench.Formats{SBBT: true})
	if err != nil {
		t.Fatal(err)
	}
	in := ts.SBBT[0]
	out := strings.TrimSuffix(in, ".mlz") + ".mlzs"

	var stdout, stderr bytes.Buffer
	if code := run([]string{"recompress", "-chunk-size", "4096", "-compress-j", "3", in, out}, &stdout, &stderr); code != 0 {
		t.Fatalf("recompress exited %d: %s", code, stderr.String())
	}
	// Parallel compression must be byte-identical to sequential.
	seq := out + ".seq"
	if code := run([]string{"recompress", "-chunk-size", "4096", in, seq}, new(bytes.Buffer), &stderr); code != 0 {
		t.Fatalf("sequential recompress exited %d: %s", code, stderr.String())
	}
	a, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("-compress-j 3 produced different container bytes than sequential (%d vs %d bytes)", len(a), len(b))
	}

	stdout.WriteString("---\n")
	if code := run([]string{"info", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("info exited %d: %s", code, stderr.String())
	}
	stdout.WriteString("---\n")
	if code := run([]string{"verify", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("verify exited %d: %s", code, stderr.String())
	}
	got := bytes.ReplaceAll(stdout.Bytes(), []byte(dir), []byte("$DIR"))
	checkGolden(t, "recompress_info.txt", got)
}

// TestRecompressUsageErrors locks the exit codes of the flag validation.
func TestRecompressUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"recompress", "-chunk-size", "0", "in", "out"},
		{"recompress", "-compress-j", "0", "in", "out"},
		{"recompress", "-level", "turbo", "in", "out"},
		{"recompress", "only-one-arg"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestConvertSBBTMLZSIsChunked: convert to .sbbt.mlzs writes a
// packet-aligned container, chunk boundaries on packet boundaries past the
// header, and its stream holds the input's events.
func TestConvertSBBTMLZSIsChunked(t *testing.T) {
	dir := t.TempDir()
	ts, err := bench.PrepareSuite(dir, "cbp5-train", 2000, bench.Formats{SBBT: true})
	if err != nil {
		t.Fatal(err)
	}
	in := ts.SBBT[0]
	out := filepath.Join(dir, "converted.sbbt.mlzs")
	var stderr bytes.Buffer
	if code := run([]string{"convert", in, out}, new(bytes.Buffer), &stderr); code != 0 {
		t.Fatalf("convert exited %d: %s", code, stderr.String())
	}
	st, err := compress.StatMLZSFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Indexed || st.Align != sbbt.PacketSize || st.AlignOffset != sbbt.HeaderSize {
		t.Errorf("convert output: indexed %v, align %d offset %d; want an indexed container aligned %d from %d",
			st.Indexed, st.Align, st.AlignOffset, sbbt.PacketSize, sbbt.HeaderSize)
	}
	r, c, err := openTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, gc, err := openTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	for n := 0; ; n++ {
		want, werr := r.Read()
		ev, err := got.Read()
		if werr == io.EOF && err == io.EOF {
			return
		}
		if werr != nil || err != nil {
			t.Fatalf("event %d: input err %v, output err %v", n, werr, err)
		}
		if ev != want {
			t.Fatalf("event %d: output %+v, input %+v", n, ev, want)
		}
	}
}
