package sim

import (
	"errors"
	"fmt"
	"io"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/utils"
)

// TraceSource lazily opens one trace of a set. Open is called from a worker
// goroutine; the returned Closer (which may be nil) is closed when the
// simulation of that trace finishes.
type TraceSource struct {
	Name string
	Open func() (bp.Reader, io.Closer, error)
	// OpenChunked is unused by the simulator, which reads every trace
	// through Open, and no source in this module sets it.
	OpenChunked func() (ChunkedTrace, error)
	// Digest optionally identifies the trace contents (conventionally the
	// hex SHA-256 of the file, journal.DigestFile). The sweep journal keys
	// cells by it, so journalled results survive file renames and reject
	// silently swapped bytes, and the decoded-trace cache keys entries by
	// it, so a rewritten file never replays stale events. Empty falls back
	// to Name.
	Digest string
}

// ID identifies the trace's contents: its Digest, or its Name when it has
// none.
func (s TraceSource) ID() string {
	if s.Digest != "" {
		return s.Digest
	}
	return s.Name
}

// FailureMode selects how a sweep reacts to a per-cell failure.
type FailureMode int

// Failure modes.
const (
	// FailFast aborts the whole sweep on the first failure.
	FailFast FailureMode = iota
	// SkipFailed records the failure and keeps simulating the remaining
	// cells, so a 200-trace sweep with 3 corrupt traces still reports 197
	// scores plus a failure table.
	SkipFailed
)

// String returns the flag-style name of the mode ("failfast", "skip").
func (m FailureMode) String() string {
	switch m {
	case FailFast:
		return "failfast"
	case SkipFailed:
		return "skip"
	}
	return fmt.Sprintf("FailureMode(%d)", int(m))
}

// Policy describes how SweepParallel treats per-cell failures.
type Policy struct {
	// Mode selects abort-on-first-failure or skip-and-continue.
	Mode FailureMode
	// Retries is the number of additional Open attempts after a transient
	// open failure (one the faults taxonomy does not classify as
	// permanent, e.g. an EMFILE or a network-filesystem hiccup). Decode
	// errors and panics are never retried: the bytes will not improve.
	Retries int
	// Backoff is the ceiling of the delay before the first retry; the
	// ceiling doubles per attempt and is capped at maxBackoff, and each
	// actual delay is drawn uniformly from [0, ceiling) — "full jitter",
	// which decorrelates the retry storms of many workers hitting the same
	// transient fault together. Zero means retry immediately.
	Backoff time.Duration
	// Seed seeds the backoff jitter. Zero derives a seed from the clock;
	// any fixed value makes the jitter schedule reproducible for tests.
	Seed uint64
}

// maxBackoff caps the exponential retry delay.
const maxBackoff = 2 * time.Second

// backoffState is the full-jitter retry schedule of one open-retry loop:
// nextDelay draws uniformly from [0, ceiling) and doubles the ceiling up to
// maxBackoff. Each loop owns its generator — utils.Rand is not safe for
// concurrent use — seeded from the policy seed mixed with the trace name,
// so workers sharing a seed still spread out.
type backoffState struct {
	ceil time.Duration
	rng  *utils.Rand
}

func newBackoff(policy Policy, traceName string) *backoffState {
	seed := policy.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	return &backoffState{ceil: policy.Backoff, rng: utils.NewRand(utils.Mix(seed ^ hashName(traceName)))}
}

// nextDelay returns the next sleep and advances the doubling ceiling.
func (b *backoffState) nextDelay() time.Duration {
	if b.ceil <= 0 {
		return 0
	}
	d := time.Duration(b.rng.Float64() * float64(b.ceil))
	if b.ceil *= 2; b.ceil > maxBackoff {
		b.ceil = maxBackoff
	}
	return d
}

// hashName is FNV-1a over a trace name, for seed mixing.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// TraceFailure describes one trace the set could not score.
type TraceFailure struct {
	// Trace is the TraceSource name.
	Trace string `json:"trace"`
	// Class is the faults taxonomy class: "corrupt", "truncated", "limit",
	// "panic", or "other".
	Class string `json:"class"`
	// Message is the full error text.
	Message string `json:"message"`
	// Attempts is how many times the trace was tried (1 when no retries).
	Attempts int `json:"attempts"`
	// Seconds is wall time spent on the cell across all attempts before it
	// failed. Wall time is not deterministic, so outputs that promise
	// byte-identical bytes across schedules must omit or scrub it.
	Seconds float64 `json:"seconds,omitempty"`
	// Resumable marks a failure that does not condemn the cell: the sweep
	// was drained before (or while) the cell ran, and a resumed sweep will
	// run it again. Resumable failures are never journalled as final.
	Resumable bool `json:"resumable,omitempty"`
	// Stack is the captured goroutine stack when Class is "panic".
	Stack string `json:"stack,omitempty"`
	// Err is the underlying error, for errors.Is/As; it is not serialized.
	Err error `json:"-"`
}

// SetResult carries one predictor's outcome over a trace set:
// Results is index-aligned with the sources (nil for a failed trace) and
// Failures lists every trace that could not be scored. Each Result is a
// sweep cell's metrics-only form (SweepParallel): it carries no
// most_failed report.
type SetResult struct {
	Results  []*Result
	Failures []TraceFailure
}

func newFailure(trace string, err error, attempts int, d time.Duration) *TraceFailure {
	f := &TraceFailure{
		Trace:     trace,
		Class:     faults.Class(err),
		Message:   err.Error(),
		Attempts:  attempts,
		Seconds:   d.Seconds(),
		Resumable: errors.Is(err, faults.ErrDrained),
		Err:       err,
	}
	var pe *faults.PanicError
	if errors.As(err, &pe) {
		f.Stack = string(pe.Stack)
	}
	return f
}

// SetSummary aggregates one predictor's results over a trace set the way
// championship scoreboards do: totals plus the arithmetic mean MPKI over
// traces.
type SetSummary struct {
	Traces                 int     `json:"traces"`
	TotalInstructions      uint64  `json:"total_instructions"`
	TotalConditional       uint64  `json:"total_conditional_branches"`
	TotalMispredictions    uint64  `json:"total_mispredictions"`
	MeanMPKI               float64 `json:"mean_mpki"`
	WorstMPKI              float64 `json:"worst_mpki"`
	WorstTrace             string  `json:"worst_trace"`
	AggregateMPKI          float64 `json:"aggregate_mpki"` // over summed counts
	AggregateAccuracy      float64 `json:"aggregate_accuracy"`
	TotalSimulationSeconds float64 `json:"total_simulation_seconds"`
}

// Summarize aggregates one predictor's results over a trace set. Nil
// entries (traces a SkipFailed policy could not score) are excluded from
// every statistic, including the trace count and the mean.
func Summarize(results []*Result) SetSummary {
	var s SetSummary
	var mpkiSum float64
	for _, r := range results {
		if r == nil {
			continue
		}
		s.Traces++
		s.TotalInstructions += r.Metadata.SimulationInstr
		s.TotalConditional += r.Metadata.NumConditionalBranches
		s.TotalMispredictions += r.Metrics.Mispredictions
		s.TotalSimulationSeconds += r.Metrics.SimulationTime
		mpkiSum += r.Metrics.MPKI
		if r.Metrics.MPKI > s.WorstMPKI {
			s.WorstMPKI = r.Metrics.MPKI
			s.WorstTrace = r.Metadata.Trace
		}
	}
	if s.Traces > 0 {
		s.MeanMPKI = mpkiSum / float64(s.Traces)
	}
	if s.TotalInstructions > 0 {
		s.AggregateMPKI = float64(s.TotalMispredictions) / (float64(s.TotalInstructions) / 1000)
	}
	if s.TotalConditional > 0 {
		s.AggregateAccuracy = 1 - float64(s.TotalMispredictions)/float64(s.TotalConditional)
	}
	return s
}
