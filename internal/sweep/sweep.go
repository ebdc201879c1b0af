// Package sweep is the shared parameter-sweep pipeline behind mbpsweep and
// the mbpd daemon: one spec shape, one resolution step (glob expansion,
// predictor validation, trace digests), one execution path over the sim
// scheduler, and one renderer. Because the CLI and the daemon call the very
// same functions, a sweep submitted remotely produces byte-identical result
// JSON to the same sweep run locally — the equivalence the daemon-smoke CI
// gate diffs at the binary level.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sim/tracecache"
)

// Exit codes shared by the sweep CLIs and mapped onto HTTP statuses by
// internal/api: 0 success, 1 usage error, 2 partial failure (some traces
// failed but every value still scored), 3 total failure, 4 drained (the run
// was interrupted; resumable).
const (
	ExitOK      = 0
	ExitUsage   = 1
	ExitPartial = 2
	ExitTotal   = 3
	ExitDrained = 4
)

// Spec is one parameter sweep, in the wire shape the daemon persists and
// internal/api serialises: the flags of mbpsweep as data. The zero values of
// Step and Policy normalise to 1 and "failfast".
type Spec struct {
	// Traces is a glob of SBBT trace files on the executing host.
	Traces string `json:"traces"`
	// Predictor is a registry spec with a %d placeholder for the swept value.
	Predictor string `json:"predictor"`
	// From, To and Step define the swept values {From, From+Step, ..., <= To}.
	From int `json:"from"`
	To   int `json:"to"`
	Step int `json:"step,omitempty"`
	// Policy is the per-trace failure policy: "failfast" or "skip".
	Policy string `json:"policy,omitempty"`
	// Retries is the transient trace-open retry budget.
	Retries int `json:"retries,omitempty"`
}

// Normalized returns the spec with defaults filled in: Step 1, Policy
// "failfast". Normalisation happens before validation and before the job
// key is derived, so "step omitted" and "step 1" are the same job.
func (s Spec) Normalized() Spec {
	if s.Step == 0 {
		s.Step = 1
	}
	if s.Policy == "" {
		s.Policy = sim.FailFast.String()
	}
	return s
}

// Validate rejects specs the sweep cannot run, with the exact messages the
// CLIs have always printed (prefixed by the command name there, carried in
// an API error envelope by the daemon). Call on a Normalized spec.
func (s Spec) Validate() error {
	if s.Traces == "" {
		return fmt.Errorf("traces glob is required")
	}
	if !strings.Contains(s.Predictor, "%d") {
		return fmt.Errorf("predictor spec %q has no %%d placeholder", s.Predictor)
	}
	if s.Step <= 0 || s.To < s.From {
		return fmt.Errorf("invalid sweep range [%d, %d] step %d", s.From, s.To, s.Step)
	}
	if _, err := s.Mode(); err != nil {
		return err
	}
	if s.Retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", s.Retries)
	}
	return nil
}

// Mode parses the policy name into the sim failure mode.
func (s Spec) Mode() (sim.FailureMode, error) {
	switch s.Policy {
	case sim.FailFast.String():
		return sim.FailFast, nil
	case sim.SkipFailed.String():
		return sim.SkipFailed, nil
	}
	return 0, fmt.Errorf("unknown -policy %q (want failfast or skip)", s.Policy)
}

// ExpandSpecs materialises the swept predictor specs, validating each one
// against the registry before anything runs.
func (s Spec) ExpandSpecs() ([]string, error) {
	var specs []string
	for v := s.From; v <= s.To; v += s.Step {
		spec := fmt.Sprintf(s.Predictor, v)
		if _, err := registry.New(spec); err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// Resolved is a validated spec bound to concrete trace files and expanded
// predictor specs — everything Run needs, and the identity the daemon keys
// jobs by.
type Resolved struct {
	Spec    Spec
	Sources []sim.TraceSource
	Specs   []string
	Preds   []sim.PredictorSpec
}

// Resolve normalises and validates the spec, expands the trace glob (sorted
// path order, like every CLI) and the swept predictor specs. The returned
// value is ready to Run; call AttachDigests first when the run journals or
// the caller needs a content-addressed identity.
func (s Spec) Resolve() (*Resolved, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(s.Traces)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no traces match %q", s.Traces)
	}
	sort.Strings(paths)
	specs, err := s.ExpandSpecs()
	if err != nil {
		return nil, err
	}
	r := &Resolved{Spec: s, Specs: specs, Sources: Sources(paths)}
	r.Preds = make([]sim.PredictorSpec, len(specs))
	for i, spec := range specs {
		r.Preds[i] = sim.PredictorSpec{Name: spec, New: NewFor(spec)}
	}
	return r, nil
}

// Sources builds the trace sources of a sorted path list, the one way the
// sweep CLIs open traces: transparent decompression, then the SBBT reader.
func Sources(paths []string) []sim.TraceSource {
	sources := make([]sim.TraceSource, len(paths))
	for i, path := range paths {
		sources[i] = sim.TraceSource{Name: path, Open: openSBBT(path)}
	}
	return sources
}

// openSBBT is the trace-open closure of Sources.
func openSBBT(path string) func() (bp.Reader, io.Closer, error) {
	return func() (bp.Reader, io.Closer, error) {
		f, err := compress.OpenFile(path)
		if err != nil {
			return nil, nil, err
		}
		r, err := sbbt.NewReader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return r, f, nil
	}
}

// NewFor builds the per-cell predictor constructor of a spec the registry
// has already accepted.
func NewFor(spec string) func() bp.Predictor {
	return func() bp.Predictor {
		p, err := registry.New(spec)
		if err != nil {
			panic(err) // validated at resolve time; specs are immutable strings
		}
		return p
	}
}

// AttachDigests computes the content digest of every trace, so journal cells
// (and the daemon's job identity) are keyed by trace bytes rather than
// paths: a renamed file still replays, swapped bytes never do. An unreadable
// file keeps an empty digest and falls back to its path — the open will fail
// properly during the sweep.
func (r *Resolved) AttachDigests() { AttachDigests(r.Sources) }

// AttachDigests is Resolved.AttachDigests over a list of sources.
func AttachDigests(sources []sim.TraceSource) {
	for i := range sources {
		if d, err := journal.DigestFile(sources[i].Name); err == nil {
			sources[i].Digest = d
		}
	}
}

// Key is the content-addressed identity of this sweep: a SHA-256 over the
// trace digests (paths for undigested sources), the expanded predictor
// specs, the simulation window, and the failure policy — the same
// ingredients as the journal's per-cell keys, lifted to job granularity.
// Two submissions with the same key would produce byte-identical result
// JSON, which is exactly when the daemon may serve a cached job instead of
// re-simulating. Call AttachDigests first for a content-addressed key.
func (r *Resolved) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "mbp-sweep-key-v1\n")
	for _, src := range r.Sources {
		fmt.Fprintf(h, "trace %s\n", src.ID())
	}
	for _, spec := range r.Specs {
		fmt.Fprintf(h, "pred %s\n", spec)
	}
	fmt.Fprintf(h, "w=0|s=0|policy=%s\n", r.Spec.Policy)
	return hex.EncodeToString(h.Sum(nil))
}

// RunOptions configures one execution of a resolved sweep. The zero value
// runs the scheduler with default workers and no cache: each trace is read
// once, by one trace group, whatever the number of values.
type RunOptions struct {
	// Jobs is the -j scheduler width. <= 0 means GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, is the decoded-trace cache the run shares with
	// its caller's other runs: the daemon passes its one cache to every
	// job, so a job over traces an earlier job read decodes nothing.
	Cache *tracecache.Cache
	// Policy is the full failure policy, including the retry backoff the
	// wire Spec does not carry.
	Policy sim.Policy
	// Metrics receives scheduler observability when non-nil; results are
	// byte-identical either way.
	Metrics *obs.Collector
	// Journal, CheckpointEvery, Drain and CellTimeout have their
	// sim.ParallelOptions meanings.
	Journal         *journal.Journal
	CheckpointEvery uint64
	Drain           <-chan struct{}
	CellTimeout     time.Duration
}

// Run executes the sweep on the sim scheduler: one SetResult per swept
// value. Results and failure tables are deterministic and identical at
// every Jobs width; a FailFast error reads "<spec>: sim: trace ...".
func (r *Resolved) Run(opts RunOptions) ([]*sim.SetResult, error) {
	return sim.SweepParallel(r.Sources, r.Preds, sim.Config{Metrics: opts.Metrics}, sim.ParallelOptions{
		Workers: opts.Jobs, Cache: opts.Cache, Policy: opts.Policy,
		Metrics: opts.Metrics,
		Journal: opts.Journal, CheckpointEvery: opts.CheckpointEvery,
		Drain: opts.Drain, CellTimeout: opts.CellTimeout,
	})
}
