package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/sbbt"
	"mbplib/internal/tracegen"
)

// readAll drains r into a slice of events.
func readAll(t *testing.T, r bp.Reader) []bp.Event {
	t.Helper()
	var evs []bp.Event
	for {
		ev, err := r.Read()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

// readSBBT reads every event of an SBBT trace file in any container.
func readSBBT(t *testing.T, path string) []bp.Event {
	t.Helper()
	f, err := compress.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := sbbt.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	return readAll(t, r)
}

// TestRunFormatsReadBack: a tiny suite written as .sbbt.mlz and packet-
// aligned .sbbt.mlzs reads back to the generator's events, and the
// .sbbt.mlzs containers carry the packet alignment.
func TestRunFormatsReadBack(t *testing.T) {
	dir := t.TempDir()
	const suite, scale = "dpc3", 400
	if err := run(suite, dir, scale, "sbbt,mlzs", 2); err != nil {
		t.Fatal(err)
	}
	specs, err := tracegen.Suite(suite, scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		g, err := tracegen.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := readAll(t, g)
		base := filepath.Join(dir, spec.Name)
		if got := readSBBT(t, base+".sbbt.mlz"); !slices.Equal(got, want) {
			t.Errorf("%s.sbbt.mlz: %d events differ from the generator's %d", spec.Name, len(got), len(want))
		}
		if got := readSBBT(t, base+".sbbt.mlzs"); !slices.Equal(got, want) {
			t.Errorf("%s.sbbt.mlzs: %d streamed events differ from the generator's %d", spec.Name, len(got), len(want))
		}
		st, err := compress.StatMLZSFile(base + ".sbbt.mlzs")
		if err != nil {
			t.Fatal(err)
		}
		if st.Align != sbbt.PacketSize || st.AlignOffset != sbbt.HeaderSize {
			t.Errorf("%s.sbbt.mlzs: align %d offset %d, want packet-aligned (%d from %d)", spec.Name, st.Align, st.AlignOffset, sbbt.PacketSize, sbbt.HeaderSize)
		}
	}
}

// TestRunBadFormat: an unknown -formats entry is an error, and nothing is
// written.
func TestRunBadFormat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	err := run("dpc3", dir, 400, "sbbt,mlz", 1)
	if err == nil || !strings.Contains(err.Error(), `unknown format "mlz"`) {
		t.Fatalf("err = %v, want an unknown-format error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a rejected -formats created %s (stat: %v)", dir, err)
	}
}
