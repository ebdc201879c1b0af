package daemon_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"mbplib/internal/api"
	"mbplib/internal/bench"
	"mbplib/internal/daemon"
	"mbplib/internal/sweep"
)

// prepSuite writes the cbp5-train suite at scale into a fresh directory, in
// both the stream (.sbbt.mlz) and the chunked (.sbbt.mlzs) format, and
// returns the directory.
func prepSuite(t *testing.T, scale uint64) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := bench.PrepareSuite(dir, "cbp5-train", scale, bench.Formats{SBBT: true, SBBTMLZS: true}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runJob submits spec and waits for it to finish cleanly, returning its
// stored result JSON.
func runJob(t *testing.T, srv *httptest.Server, spec api.SweepSpec) []byte {
	t.Helper()
	resp, body := submit(t, srv, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (a fresh job): %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if job := waitTerminal(t, srv, sub.ID); job.State != api.StateDone || job.ExitCode != sweep.ExitOK {
		t.Fatalf("job = %s (exit %d, error %q), want done/0", job.State, job.ExitCode, job.Error)
	}
	return getResult(t, srv, sub.ID, "json")
}

// localResult runs spec through the local pipeline, with a cache of its
// own, and renders its result JSON.
func localResult(t *testing.T, spec api.SweepSpec) []byte {
	t.Helper()
	resolved, err := daemon.SweepSpec(spec).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sets, err := resolved.Run(sweep.RunOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := sweep.Render(&out, io.Discard, resolved.Specs, sets, len(resolved.Sources), true); code != sweep.ExitOK {
		t.Fatalf("local render exited %d", code)
	}
	return out.Bytes()
}

// TestRewrittenTraceIsNotServedStale: the daemon's cache outlives jobs, so
// it must key traces by content. A trace rewritten with other events after a
// job has read it is decoded afresh by the next job, whose result equals a
// local run over the new bytes.
func TestRewrittenTraceIsNotServedStale(t *testing.T) {
	dir, other := prepSuite(t, 1000), prepSuite(t, 1200)
	_, srv := newServer(t, true, daemon.Config{Jobs: 2})
	spec := api.SweepSpec{Traces: filepath.Join(dir, "SHORT_*.sbbt*"), Predictor: "gshare:t=12,h=%d", From: 4, To: 5}
	before := runJob(t, srv, spec)

	// Same names, other events: one .sbbt.mlz and one .sbbt.mlzs trace.
	for _, name := range []string{"SHORT_MOBILE-1.sbbt.mlz", "SHORT_MOBILE-1.sbbt.mlzs"} {
		data, err := os.ReadFile(filepath.Join(other, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	after := runJob(t, srv, spec)
	if bytes.Equal(before, after) {
		t.Fatal("rewriting a trace left the result unchanged; the test cannot tell stale events from fresh ones")
	}
	if local := localResult(t, spec); !bytes.Equal(local, after) {
		t.Errorf("result after the rewrite differs from a local run on the new bytes:\nlocal:  %s\ndaemon: %s", local, after)
	}
}

// TestSharedCacheEvictsWithinBudget: jobs share one cache budget. Two jobs
// whose traces fit the budget alone but not together make the second evict
// the first's entries rather than grow past the budget.
func TestSharedCacheEvictsWithinBudget(t *testing.T) {
	// The SHORT traces of cbp5-train decode to 258 kB at scale 1000 and
	// 263 kB at scale 1100: 8-byte records, and their static tables, which
	// are most of it at this scale.
	const budget = 300_000
	first, second := prepSuite(t, 1000), prepSuite(t, 1100)
	d, srv := newServer(t, true, daemon.Config{Jobs: 2, CacheBytes: budget})
	spec := func(glob string) api.SweepSpec {
		return api.SweepSpec{Traces: glob, Predictor: "gshare:t=12,h=%d", From: 4, To: 5}
	}

	// The first job reads .sbbt.mlz traces, the second .sbbt.mlzs ones.
	runJob(t, srv, spec(filepath.Join(first, "SHORT_*.sbbt.mlz")))
	st := d.CacheStats()
	if st.Evictions != 0 || st.BytesUsed == 0 || st.BytesUsed > budget {
		t.Fatalf("after the first job: %+v, want a resident set within %d bytes and no evictions", st, budget)
	}
	secondSpec := spec(filepath.Join(second, "SHORT_*.sbbt.mlzs"))
	got := runJob(t, srv, secondSpec)
	st = d.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("after the second job: %+v, want evictions", st)
	}
	if st.BytesUsed > budget {
		t.Errorf("after the second job: %d bytes resident, budget %d", st.BytesUsed, budget)
	}
	if local := localResult(t, secondSpec); !bytes.Equal(local, got) {
		t.Errorf("second job's result differs from a local run:\nlocal:  %s\ndaemon: %s", local, got)
	}
}
