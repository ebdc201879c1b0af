// Package cliflags holds the flag validation and observability plumbing
// shared by the mbp* commands, so every command rejects the same bad inputs
// with the same messages and emits the same metrics JSON.
package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mbplib/internal/obs"
)

// FlagWasSet reports whether a flag was given explicitly on the command
// line (flag.Visit only walks set flags). ResumeOptions needs the
// distinction: an explicit -checkpoint-every without -resume is a usage
// error, the default value is not.
func FlagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// Validate returns the first non-nil error of a validation table. Each
// entry is one of the value checks below, evaluated eagerly in the call, so
// every CLI states its whole validation table in one expression instead of
// accreting ad-hoc if blocks — the drift that let commands validate the
// same flag at different times (or not at all) before the table existed.
// The checks have no side effects, so a command can (and should) run its
// full table before any file, profile or journal is opened.
func Validate(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Workers rejects non-positive -j values. Commands used to clamp them
// silently; an explicit -j 0 or -j -4 is now a usage error, caught before
// any trace is opened.
func Workers(j int) error {
	if j < 1 {
		return fmt.Errorf("-j must be >= 1 (got %d)", j)
	}
	return nil
}

// CacheBytes rejects negative -cache-bytes values. 0 disables the
// decoded-trace cache (every simulation streams); positive values bound it.
func CacheBytes(b int64) error {
	if b < 0 {
		return fmt.Errorf("-cache-bytes must be >= 0 (got %d; use 0 to disable the cache)", b)
	}
	return nil
}

// CellTimeout rejects negative -cell-timeout values. 0 disables the
// per-cell deadline.
func CellTimeout(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-cell-timeout must be >= 0 (got %v; use 0 for no deadline)", d)
	}
	return nil
}

// ResumeOptions rejects flag combinations the resumable-sweep machinery
// cannot honour: -checkpoint-every snapshots go to the journal, so asking
// for them without -resume would silently drop every checkpoint.
func ResumeOptions(resume string, checkpointEverySet bool) error {
	if resume == "" && checkpointEverySet {
		return fmt.Errorf("-checkpoint-every requires -resume (checkpoints are written to the resume journal)")
	}
	return nil
}

// Retries rejects negative -retries values. Historically mbprun checked
// this inside its policy parser while mbpsweep checked it inline after
// parsing the policy (and after starting profiles) — the same rule,
// enforced at two different times. The validation table runs it before any
// side effect on every CLI.
func Retries(n int) error {
	if n < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", n)
	}
	return nil
}

// PolicyName rejects unknown -policy names before any trace opens.
func PolicyName(name string) error {
	switch name {
	case "failfast", "skip":
		return nil
	}
	return fmt.Errorf("unknown -policy %q (want failfast or skip)", name)
}

// Listen rejects malformed -listen addresses: the value must be a
// host:port pair with a numeric port (port 0 asks the kernel for a random
// free port, which the daemon reports via its address file).
func Listen(addr string) error {
	if addr == "" {
		return fmt.Errorf("-listen is required")
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-listen %q is not a host:port address: %v", addr, err)
	}
	_ = host // an empty host means every interface, which is valid
	if _, err := strconv.ParseUint(port, 10, 16); err != nil {
		return fmt.Errorf("-listen %q has a non-numeric port %q", addr, port)
	}
	return nil
}

// DataDir rejects an empty -data-dir: the daemon's jobs, journals and
// address file all live under it, so there is no sensible default to
// scribble into.
func DataDir(dir string) error {
	if dir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	return nil
}

// QueueDepth rejects non-positive -queue bounds: a daemon with no queue
// capacity could never accept a job.
func QueueDepth(n int) error {
	if n < 1 {
		return fmt.Errorf("-queue must be >= 1 (got %d)", n)
	}
	return nil
}

// SnapshotEvery rejects non-positive -snapshot-every intervals, which
// would spin the SSE progress loop.
func SnapshotEvery(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-snapshot-every must be > 0 (got %v)", d)
	}
	return nil
}

// MostFailed rejects negative -most-failed caps, which the simulator would
// otherwise read as its default (no cap for mbpsim, 20 entries for
// mbpcmp).
func MostFailed(n int) error {
	if n < 0 {
		return fmt.Errorf("-most-failed must be >= 0 (got %d)", n)
	}
	return nil
}

// CacheBudget translates the CLI's -cache-bytes convention (0 = disabled)
// into that of daemon.Config (0 = "use default", negative = disabled),
// after validation.
func CacheBudget(b int64) int64 {
	if b == 0 {
		return -1 // explicit disable
	}
	return b
}

// DefaultCheckpointEvery is the default -checkpoint-every interval: events
// between in-flight cell checkpoints when a resume journal is active. A
// checkpoint encodes and fsyncs the full predictor state plus per-branch
// statistics (hundreds of KB at default table sizes), so the interval must
// be large enough that this amortizes below a few percent of cell time —
// 16M events keeps it there for every bundled predictor while bounding the
// work a SIGKILL can lose to seconds of re-simulation.
const DefaultCheckpointEvery = 1 << 24

// DrainOnSignal arms the graceful-drain contract shared by the mbp*
// commands: the first SIGINT/SIGTERM closes the returned channel — the
// scheduler stops admitting cells, checkpoints in-flight work when
// journalling, and the command exits with the drained code — and a second
// signal aborts the process immediately. The returned stop function releases
// the signal handler; call it once the run has completed normally.
func DrainOnSignal(name string, errw io.Writer) (<-chan struct{}, func()) {
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-sigs
		if !ok {
			return
		}
		fmt.Fprintf(errw, "%s: %v: draining — finishing in-flight work, signal again to abort\n", name, sig)
		close(drain)
		if sig, ok = <-sigs; ok {
			fmt.Fprintf(errw, "%s: %v: aborting\n", name, sig)
			os.Exit(130)
		}
	}()
	return drain, func() {
		signal.Stop(sigs)
		close(sigs)
	}
}

// Metrics is the state behind a command's -metrics and -progress flags:
// an optional collector and where to serialise its final snapshot.
type Metrics struct {
	col  *obs.Collector
	dest string
	errw io.Writer
	stop func()
}

// NewMetrics builds the metrics state for one command invocation.
// metricsDest is the -metrics flag value: "" leaves collection disabled,
// "-" writes the snapshot to errw (conventionally stderr, keeping stdout
// byte-identical to an uninstrumented run), anything else is a file path.
// When progress is set, a live status line refreshes on errw until Close.
func NewMetrics(metricsDest string, progress bool, errw io.Writer) *Metrics {
	m := &Metrics{dest: metricsDest, errw: errw, stop: func() {}}
	if metricsDest != "" || progress {
		m.col = obs.New()
	}
	if progress {
		m.stop = obs.StartProgress(errw, m.col, 0)
	}
	return m
}

// Collector returns the collector to thread through the pipeline — nil when
// neither -metrics nor -progress was given, which disables collection at
// zero cost.
func (m *Metrics) Collector() *obs.Collector { return m.col }

// Close stops the progress line and writes the final metrics snapshot to
// the -metrics destination. Call exactly once, after the results have been
// rendered. Returns an error only for metrics-file I/O failures.
func (m *Metrics) Close() error {
	m.stop()
	if m.dest == "" || m.col == nil {
		return nil
	}
	data, err := json.MarshalIndent(m.col.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("encoding metrics: %w", err)
	}
	data = append(data, '\n')
	if m.dest == "-" {
		_, err = m.errw.Write(data)
		return err
	}
	if err := os.WriteFile(m.dest, data, 0o644); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	return nil
}

// ValidateVetOutput rejects contradictory mbpvet output selections: -json
// and -sarif both claim stdout, so asking for both is a usage error rather
// than a silent preference.
func ValidateVetOutput(jsonOut, sarifOut bool) error {
	if jsonOut && sarifOut {
		return fmt.Errorf("-json and -sarif are mutually exclusive (both write the findings document to stdout)")
	}
	return nil
}

// SplitVetRules splits a -rules value ("purity,goroutine" or "v1,v6") into
// its entries, trimming whitespace and dropping empties. Validation of the
// names themselves happens in the vet package, which owns the catalogue;
// an unknown name surfaces as a usage error (exit 2).
func SplitVetRules(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
