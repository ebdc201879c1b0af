package daemon_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mbplib/internal/api"
	"mbplib/internal/bench"
	"mbplib/internal/daemon"
	"mbplib/internal/sweep"
)

// prepTraces materialises a small healthy trace suite and returns a glob.
func prepTraces(t *testing.T, scale uint64) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := bench.PrepareSuite(dir, "cbp5-train", scale, bench.Formats{SBBT: true}); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "*.sbbt*")
}

// newServer builds a daemon over a fresh data dir and serves its handler.
func newServer(t *testing.T, start bool, cfg daemon.Config) (*daemon.Daemon, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	d, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start {
		d.Start()
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := d.Close(); err != nil {
			t.Errorf("closing daemon: %v", err)
		}
	})
	return d, srv
}

func submit(t *testing.T, srv *httptest.Server, spec api.SweepSpec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(api.SubmitRequest{APIVersion: api.Version, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return doReq(t, http.MethodPost, srv.URL+"/v1/jobs", bytes.NewReader(body))
}

func doReq(t *testing.T, method, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeErr(t *testing.T, body []byte) api.Error {
	t.Helper()
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decoding error envelope %q: %v", body, err)
	}
	return e
}

func decodeJob(t *testing.T, body []byte) api.Job {
	t.Helper()
	var j api.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("decoding job %q: %v", body, err)
	}
	return j
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, srv *httptest.Server, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := doReq(t, http.MethodGet, srv.URL+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s = %d: %s", id, resp.StatusCode, body)
		}
		job := decodeJob(t, body)
		if api.TerminalState(job.State) {
			return job
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return api.Job{}
}

// smallSpec is a sweep that finishes in well under a second.
func smallSpec(glob string) api.SweepSpec {
	return api.SweepSpec{
		Traces: glob, Predictor: "gshare:t=12,h=%d",
		From: 4, To: 6, Policy: "skip",
	}
}

// TestAPIContract pins the HTTP surface: malformed bodies, unknown jobs,
// version checks, invalid specs and the bounded queue all map onto the
// documented statuses and error codes.
func TestAPIContract(t *testing.T) {
	glob := prepTraces(t, 2000)
	// Runner deliberately not started: jobs stay queued, so queue bounds
	// and queued-job transitions are deterministic.
	_, srv := newServer(t, false, daemon.Config{QueueDepth: 1})

	t.Run("bad-json", func(t *testing.T) {
		resp, body := doReq(t, http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader("{not json"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Err.Code != api.CodeBadRequest {
			t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeBadRequest)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		resp, body := doReq(t, http.MethodPost, srv.URL+"/v1/jobs",
			strings.NewReader(`{"api_version": 99, "spec": {"traces": "x", "predictor": "gshare:t=12,h=%d", "from": 4, "to": 6}}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Err.Code != api.CodeBadRequest {
			t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeBadRequest)
		}
	})
	t.Run("invalid-spec", func(t *testing.T) {
		spec := smallSpec(glob)
		spec.Predictor = "gshare:t=12,h=4" // no %d placeholder
		resp, body := submit(t, srv, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		e := decodeErr(t, body)
		if e.Err.Code != api.CodeInvalidSpec {
			t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeInvalidSpec)
		}
		if !strings.Contains(e.Err.Message, "placeholder") {
			t.Fatalf("message = %q, want the CLI's placeholder error", e.Err.Message)
		}
	})
	t.Run("out-of-range-option", func(t *testing.T) {
		spec := smallSpec(glob)
		spec.From = 0 // expands to gshare:t=12,h=0
		resp, body := submit(t, srv, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400: %s", resp.StatusCode, body)
		}
		e := decodeErr(t, body)
		if e.Err.Code != api.CodeInvalidSpec {
			t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeInvalidSpec)
		}
		if !strings.Contains(e.Err.Message, "h=0 out of range") {
			t.Fatalf("message = %q, want the registry's range error", e.Err.Message)
		}
	})
	t.Run("unknown-job", func(t *testing.T) {
		resp, body := doReq(t, http.MethodGet, srv.URL+"/v1/jobs/deadbeef0000", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404: %s", resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Err.Code != api.CodeNotFound {
			t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeNotFound)
		}
	})
	t.Run("queue-full-and-cancel", func(t *testing.T) {
		resp, body := submit(t, srv, smallSpec(glob))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit = %d, want 202: %s", resp.StatusCode, body)
		}
		var sub api.SubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		if sub.State != api.StateQueued || sub.Cached {
			t.Fatalf("first submit = %+v, want fresh queued job", sub)
		}

		other := smallSpec(glob)
		other.To = 8 // different work, different key
		resp, body = submit(t, srv, other)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("over-queue submit = %d, want 503: %s", resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Err.Code != api.CodeQueueFull {
			t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeQueueFull)
		}

		// Resubmitting the queued job is idempotent, not queue-full.
		resp, body = submit(t, srv, smallSpec(glob))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("idempotent resubmit = %d, want 202: %s", resp.StatusCode, body)
		}

		// Cancelling the queued job lands in the canonical failure class.
		resp, body = doReq(t, http.MethodDelete, srv.URL+"/v1/jobs/"+sub.ID, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel = %d, want 202: %s", resp.StatusCode, body)
		}
		job := decodeJob(t, decodeGet(t, srv, sub.ID))
		if job.State != api.StateCancelled {
			t.Fatalf("state = %q, want cancelled", job.State)
		}
		if job.FailureClass != "drained" {
			t.Fatalf("failure class = %q, want drained", job.FailureClass)
		}
		if job.ExitCode != sweep.ExitDrained {
			t.Fatalf("exit code = %d, want %d", job.ExitCode, sweep.ExitDrained)
		}

		// A second cancel is a conflict.
		resp, body = doReq(t, http.MethodDelete, srv.URL+"/v1/jobs/"+sub.ID, nil)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("second cancel = %d, want 409: %s", resp.StatusCode, body)
		}
		if e := decodeErr(t, body); e.Err.Code != api.CodeConflict {
			t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeConflict)
		}
	})
}

func decodeGet(t *testing.T, srv *httptest.Server, id string) []byte {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, srv.URL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s = %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// getResult fetches the verbatim result bytes of a finished job.
func getResult(t *testing.T, srv *httptest.Server, id, format string) []byte {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, srv.URL+"/v1/jobs/"+id+"/result?format="+format, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s = %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// TestRunResubmitCacheHitAndLocalEquivalence runs one job to completion and
// pins the two core guarantees: the stored result JSON is byte-identical to
// the same spec run through the local pipeline, and resubmitting the same
// spec is a cache hit served without re-simulating.
func TestRunResubmitCacheHitAndLocalEquivalence(t *testing.T) {
	glob := prepTraces(t, 2000)
	_, srv := newServer(t, true, daemon.Config{Jobs: 4})
	spec := smallSpec(glob)

	resp, body := submit(t, srv, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	job := waitTerminal(t, srv, sub.ID)
	if job.State != api.StateDone || job.ExitCode != sweep.ExitOK {
		t.Fatalf("job = %s (exit %d, error %q), want done/0", job.State, job.ExitCode, job.Error)
	}
	if job.Result == nil || len(job.Result.JSON) == 0 || job.Result.Text == "" {
		t.Fatalf("finished job has no stored result: %+v", job)
	}

	// The local run of the same spec — the exact pipeline behind mbpsweep.
	resolved, err := daemon.SweepSpec(spec).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sets, err := resolved.Run(sweep.RunOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if code := sweep.Render(&local, io.Discard, resolved.Specs, sets, len(resolved.Sources), true); code != sweep.ExitOK {
		t.Fatalf("local render exited %d", code)
	}
	remote := getResult(t, srv, sub.ID, "json")
	if !bytes.Equal(local.Bytes(), remote) {
		t.Errorf("daemon result JSON differs from the local pipeline:\nlocal:  %s\ndaemon: %s", local.Bytes(), remote)
	}

	// Resubmitting the same spec: cache hit, no new job, no simulation.
	resp, body = submit(t, srv, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 (cached): %s", resp.StatusCode, body)
	}
	var again api.SubmitResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.ID != sub.ID || again.State != api.StateDone {
		t.Fatalf("resubmit = %+v, want cached done job %s", again, sub.ID)
	}
	if got := decodeJob(t, decodeGet(t, srv, sub.ID)); got.Finished != job.Finished {
		t.Errorf("cache hit re-ran the job: finished %s -> %s", job.Finished, got.Finished)
	}
}

// TestEventsStreamTerminates subscribes to a job's SSE stream and requires
// it to deliver state frames and a final done frame, then close.
func TestEventsStreamTerminates(t *testing.T) {
	glob := prepTraces(t, 2000)
	_, srv := newServer(t, true, daemon.Config{Jobs: 4, SnapshotEvery: 10 * time.Millisecond})

	resp, body := submit(t, srv, smallSpec(glob))
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	// The stream must end on its own once the job completes.
	data, err := io.ReadAll(stream.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "event: "+api.EventState) {
		t.Errorf("stream carried no state frame:\n%s", text)
	}
	if !strings.Contains(text, "event: "+api.EventDone) {
		t.Errorf("stream carried no done frame:\n%s", text)
	}
	if !strings.Contains(text, fmt.Sprintf("%q: %q", "state", api.StateDone)) &&
		!strings.Contains(text, `"state": "done"`) && !strings.Contains(text, `"state":"done"`) {
		t.Errorf("done frame does not show the done state:\n%s", text)
	}

	// SSE on an unknown job is a plain 404.
	notFound, err := http.Get(srv.URL + "/v1/jobs/ffffffffffff/events")
	if err != nil {
		t.Fatal(err)
	}
	defer notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Fatalf("events on unknown job = %d, want 404", notFound.StatusCode)
	}
}

// TestHealthAndDrain pins the healthz document and the draining contract:
// once draining, the daemon refuses submissions with 503 and says so in
// healthz.
func TestHealthAndDrain(t *testing.T) {
	glob := prepTraces(t, 2000)
	d, srv := newServer(t, false, daemon.Config{})

	resp, body := doReq(t, http.MethodGet, srv.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h api.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != api.HealthOK || h.APIVersion != api.Version {
		t.Fatalf("health = %+v, want ok/v%d", h, api.Version)
	}

	d.Drain()
	resp, body = doReq(t, http.MethodGet, srv.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != api.HealthDraining {
		t.Fatalf("health status = %q, want %q", h.Status, api.HealthDraining)
	}

	resp, body = submit(t, srv, smallSpec(glob))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503: %s", resp.StatusCode, body)
	}
	if e := decodeErr(t, body); e.Err.Code != api.CodeDraining {
		t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeDraining)
	}
}

// TestSubmitBodyLimit: a submit body one byte over the daemon's 1 MiB limit
// is refused as a bad request and queues nothing, while the same submission
// padded to exactly the limit is accepted. The padding is whitespace inside
// the JSON object, so the decoder must read past the limit to finish it.
func TestSubmitBodyLimit(t *testing.T) {
	const maxBodyBytes = 1 << 20 // the daemon's submit body limit
	glob := prepTraces(t, 2000)
	_, srv := newServer(t, false, daemon.Config{})
	body, err := json.Marshal(api.SubmitRequest{APIVersion: api.Version, Spec: smallSpec(glob)})
	if err != nil {
		t.Fatal(err)
	}
	padded := func(size int) io.Reader {
		return strings.NewReader("{" + strings.Repeat(" ", size-len(body)) + string(body[1:]))
	}

	resp, data := doReq(t, http.MethodPost, srv.URL+"/v1/jobs", padded(maxBodyBytes+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %.200s", resp.StatusCode, data)
	}
	if e := decodeErr(t, data); e.Err.Code != api.CodeBadRequest {
		t.Fatalf("code = %q, want %q", e.Err.Code, api.CodeBadRequest)
	}
	resp, data = doReq(t, http.MethodGet, srv.URL+"/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d: %s", resp.StatusCode, data)
	}
	var list api.JobList
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("oversized submit queued %d jobs", len(list.Jobs))
	}

	if resp, data := doReq(t, http.MethodPost, srv.URL+"/v1/jobs", padded(maxBodyBytes)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit at the limit = %d, want 202: %.200s", resp.StatusCode, data)
	}
}
