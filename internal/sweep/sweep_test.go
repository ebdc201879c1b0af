package sweep_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mbplib/internal/bench"
	"mbplib/internal/bp"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
)

// touch creates empty files; Resolve never opens a trace.
func touch(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestResolve(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "c.sbbt.mlzs", "a.sbbt.mlz", "b.sbbt")
	r, err := sweep.Spec{Traces: filepath.Join(dir, "*"), Predictor: "gshare:t=12,h=%d", From: 4, To: 8, Step: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, src := range r.Sources {
		names = append(names, filepath.Base(src.Name))
		if src.Open == nil {
			t.Errorf("%s: no Open", src.Name)
		}
		if src.OpenChunked != nil {
			t.Errorf("%s: OpenChunked set; sources read every trace through Open", src.Name)
		}
	}
	if got, want := strings.Join(names, " "), "a.sbbt.mlz b.sbbt c.sbbt.mlzs"; got != want {
		t.Errorf("sources = %s, want sorted %s", got, want)
	}
	if got, want := strings.Join(r.Specs, " "), "gshare:t=12,h=4 gshare:t=12,h=6 gshare:t=12,h=8"; got != want {
		t.Errorf("specs = %s, want %s", got, want)
	}
	if len(r.Preds) != len(r.Specs) || r.Preds[1].Name != r.Specs[1] {
		t.Errorf("preds %+v do not follow specs %v", r.Preds, r.Specs)
	}
}

func TestResolveErrors(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "a.sbbt")
	glob := filepath.Join(dir, "*.sbbt")
	for _, tc := range []struct {
		name string
		spec sweep.Spec
		want string
	}{
		{"empty glob", sweep.Spec{Traces: filepath.Join(dir, "*.none"), Predictor: "gshare:h=%d", From: 1, To: 2}, "no traces match"},
		{"no placeholder", sweep.Spec{Traces: glob, Predictor: "gshare", From: 1, To: 2}, "no %d placeholder"},
		{"unknown predictor", sweep.Spec{Traces: glob, Predictor: "nosuch:h=%d", From: 1, To: 2}, "nosuch"},
		{"bad range", sweep.Spec{Traces: glob, Predictor: "gshare:h=%d", From: 3, To: 2}, "invalid sweep range"},
		{"bad policy", sweep.Spec{Traces: glob, Predictor: "gshare:h=%d", From: 1, To: 2, Policy: "bogus"}, "unknown -policy"},
	} {
		if _, err := tc.spec.Resolve(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestNormalizedKey(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "a.sbbt", "b.sbbt")
	base := sweep.Spec{Traces: filepath.Join(dir, "*.sbbt"), Predictor: "gshare:t=12,h=%d", From: 4, To: 6}
	n := base.Normalized()
	if n.Step != 1 || n.Policy != sim.FailFast.String() {
		t.Errorf("Normalized = %+v, want step 1 and policy failfast", n)
	}
	stepped := base
	stepped.Step, stepped.Policy = 1, "failfast"
	r1, err := base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := stepped.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key() != r2.Key() {
		t.Error(`"step omitted" and "step 1" give different keys`)
	}

	pathKey := r1.Key()
	r1.AttachDigests()
	if r1.Sources[0].Digest == "" {
		t.Fatal("AttachDigests left the digest empty")
	}
	if r1.Key() == pathKey {
		t.Error("a digest and a path give the same key")
	}
	other := base
	other.Policy = "skip"
	r3, err := other.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r3.Key() == pathKey {
		t.Error("the failure policy does not enter the key")
	}
}

// writeCorruptSBBT writes a small SBBT trace whose first packet sets a
// reserved bit, so decoding fails as corrupt at once.
func writeCorruptSBBT(t *testing.T, path string) {
	t.Helper()
	var buf bytes.Buffer
	w, err := sbbt.NewWriter(&buf, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ev := bp.Event{Branch: bp.Branch{IP: 0x400000 + uint64(i)*4, Target: 0x500000, Opcode: bp.OpCondJump, Taken: true}}
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[sbbt.HeaderSize] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// render runs a resolved sweep and renders it as text and as JSON.
func render(t *testing.T, r *sweep.Resolved, opts sweep.RunOptions) (text, js []byte, code int) {
	t.Helper()
	sets, err := r.Run(opts)
	if err != nil {
		t.Fatalf("Run(%+v): %v", opts, err)
	}
	var tb, jb bytes.Buffer
	code = sweep.Render(&tb, &bytes.Buffer{}, r.Specs, sets, len(r.Sources), false)
	if jc := sweep.Render(&jb, &bytes.Buffer{}, r.Specs, sets, len(r.Sources), true); jc != code {
		t.Fatalf("text exit %d, JSON exit %d", code, jc)
	}
	return tb.Bytes(), jb.Bytes(), code
}

func TestRunJobsEquivalence(t *testing.T) {
	dir := t.TempDir()
	if _, err := bench.PrepareSuite(dir, "cbp5-train", 2000, bench.Formats{SBBT: true, SBBTMLZS: true}); err != nil {
		t.Fatal(err)
	}
	r, err := sweep.Spec{Traces: filepath.Join(dir, "*.sbbt*"), Predictor: "gshare:t=12,h=%d", From: 4, To: 6}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	text1, json1, code1 := render(t, r, sweep.RunOptions{Jobs: 1})
	for _, opts := range []sweep.RunOptions{{Jobs: 2}, {Jobs: 4}, {Jobs: 1, Cache: sim.NewCache(0)}, {Jobs: 4, Cache: sim.NewCache(0)}} {
		text, js, code := render(t, r, opts)
		if code != code1 || code != sweep.ExitOK {
			t.Errorf("%+v: exit %d, want %d at -j 1 and ExitOK", opts, code, code1)
		}
		if !bytes.Equal(text, text1) {
			t.Errorf("%+v: text differs from -j 1\n%s\nvs\n%s", opts, text, text1)
		}
		if !bytes.Equal(js, json1) {
			t.Errorf("%+v: JSON differs from -j 1\n%s\nvs\n%s", opts, js, json1)
		}
	}

	// FailFast over a corrupt trace: the same error at every width.
	writeCorruptSBBT(t, filepath.Join(dir, "zz-corrupt.sbbt"))
	r, err = sweep.Spec{Traces: filepath.Join(dir, "*.sbbt*"), Predictor: "gshare:t=12,h=%d", From: 5, To: 5}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var errs []string
	for _, jobs := range []int{1, 4} {
		_, err := r.Run(sweep.RunOptions{Jobs: jobs, Policy: sim.Policy{Mode: sim.FailFast}})
		if err == nil {
			t.Fatalf("-j %d: FailFast over a corrupt trace returned nil error", jobs)
		}
		errs = append(errs, err.Error())
	}
	want := `gshare:t=12,h=5: sim: trace "` + filepath.Join(dir, "zz-corrupt.sbbt") + `": `
	if !strings.HasPrefix(errs[0], want) {
		t.Errorf("FailFast error = %q, want prefix %q", errs[0], want)
	}
	if errs[0] != errs[1] {
		t.Errorf("FailFast error differs:\n-j 1: %s\n-j 4: %s", errs[0], errs[1])
	}
}
