// Command perfbench is the repository's end-to-end benchmark. One command
// generates seeded traces, drives one workload through the library's
// public entry points for a fixed time, checks the outputs, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs once untraced and once traced and the metrics are the
// per-layer ones. See README.md for the workloads, the metrics and which
// end-to-end metric each layer metric should move.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mbplib/internal/sim/journal"
)

// Set-up runs between minSetupRounds and maxSetupRounds times per
// benchmark run, stopping once the rounds took setupBudget; setup_s is
// their median. Cheap set-ups get more rounds, where a short time is
// noisier.
const (
	minSetupRounds = 3
	maxSetupRounds = 5
	setupBudget    = 4 * time.Second
)

// workDir is where runs keep their traces, job stores and span dumps,
// relative to the checkout root.
const workDir = ".bench_build/perfbench/runs"

// workload is one set of inputs and the loop that drives them.
type workload struct {
	name string
	// traces lists the traces set-up generates for a seed.
	traces func(seed uint64) ([]traceJob, error)
	// readFormats are the formats the measured side reads, for
	// trace_bytes_per_branch.
	readFormats []string
	// measure runs the timed phase. l is nil when untraced.
	measure func(b *harness, l *layers) (*phase, error)
}

var workloads = []workload{
	{"table3", table3Traces, []string{fmtSBBTMLZ}, measureTable3},
	{"sweep", sweepTraces, []string{fmtSBBTMLZ, fmtSBBTMLZS}, measureSweep},
	{"daemon-jobs", daemonTraces, []string{fmtSBBTMLZ, fmtSBBTMLZS}, measureDaemon},
}

// harness is the state one measured phase runs against.
type harness struct {
	dir     string // generated traces
	work    string // scratch root of this run (job stores, span dumps)
	seed    uint64
	seconds time.Duration
	jobs    int // worker goroutines
	traces  []traceJob
	log     io.Writer // diagnostics (standard error)
}

// phase is what one measured phase of a workload reports.
type phase struct {
	branchesPerS float64
	// startS is set-up the workload does in-process (daemon start),
	// added to the generated-trace set-up time.
	startS float64
	// peakRSSMB is the median over the phase's repetitions of each
	// repetition's peak RSS.
	peakRSSMB         float64
	attempted, failed int
	// extra are the workload's own end-to-end figures (Table III ratio,
	// daemon latency percentiles), printed in the metric table.
	extra []figure
	// layer holds the per-layer metrics of a traced phase.
	layer map[string]float64
}

// figure is one printed metric. A percentile without enough samples
// beyond it is printed as n/a.
type figure struct {
	name  string
	value float64
	unit  string
	na    bool
}

// fail records one failed cell, request or check.
func (p *phase) fail(log io.Writer, format string, args ...any) {
	p.failed++
	fmt.Fprintf(log, "perfbench: FAIL: "+format+"\n", args...)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table3, sweep or daemon-jobs")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per phase")
	traceFlag := fs.Int("trace", 0, "1 runs an untraced and a traced phase and prints per-layer metrics")
	setupDir := fs.String("setup-dir", "", "internal: generate the workload's traces into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload table3|sweep|daemon-jobs, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	jobs, err := wl.traces(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *setupDir != "" {
		// Set-up runs in a child process so its memory never counts toward
		// the measured process's peak RSS.
		st, err := materialise(*setupDir, jobs)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		return printJSON(stdout, stderr, st)
	}
	if err := benchmark(wl, jobs, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errIncorrect marks a run whose output checks failed; the result line is
// still printed.
var errIncorrect = errors.New("output checks failed")

func benchmark(wl *workload, jobs []traceJob, seed uint64, seconds time.Duration, traced bool, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workDir, wl.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &harness{
		work: work, seed: seed, seconds: seconds, traces: jobs, log: stderr,
		jobs: workers(),
	}
	setups, dirs, err := runSetups(wl.name, seed, work)
	if err != nil {
		return err
	}
	b.dir = dirs[0]
	checks := &phase{}
	checkDeterministic(checks, stderr, dirs[0], dirs[1])
	for _, d := range dirs[1:] {
		os.RemoveAll(d)
	}

	env := environment(b)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%v\n", wl.name, seed, int(seconds/time.Second), traced)
	for _, kv := range env {
		fmt.Fprintf(stdout, "env: %s=%s\n", kv[0], kv[1])
	}

	untraced, err := wl.measure(b, nil)
	if err != nil {
		return err
	}
	var tr *phase
	var l *layers
	if traced {
		l = newLayers()
		if tr, err = wl.measure(b, l); err != nil {
			return err
		}
	}
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.total()
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i].total() < setups[j].total() })
	mid := setups[len(setups)/2]
	readBytes, branches, err := traceBytes(b, wl.readFormats)
	if err != nil {
		return err
	}

	e2e := []figure{
		{name: "setup_s", value: median(setupS) + untraced.startS, unit: "s"},
		{name: "branches_per_s", value: untraced.branchesPerS, unit: "branches/s"},
		{name: "peak_rss_mb", value: untraced.peakRSSMB, unit: "MB"},
		{name: "trace_bytes_per_branch", value: ratio(float64(readBytes), float64(branches)), unit: "B"},
	}
	attempted := checks.attempted + untraced.attempted
	failed := checks.failed + untraced.failed
	if tr != nil {
		attempted += tr.attempted
		failed += tr.failed
	}
	failedFrac := figure{name: "failed_frac", value: ratio(float64(failed), float64(attempted)), unit: "fraction"}

	fmt.Fprintf(stdout, "%-34s %16s  %s\n", "metric", "value", "unit")
	printFigures(stdout, e2e)
	printFigures(stdout, untraced.extra)
	printFigures(stdout, []figure{failedFrac})

	metrics := e2e
	if tr != nil {
		layer := tr.layer
		layer["setup.tracegen_s"] = mid.TracegenS
		layer["setup.compress_s"] = mid.CompressS
		layer["trace.overhead_frac"] = 1 - ratio(tr.branchesPerS, untraced.branchesPerS)
		metrics = nil
		for _, m := range perLayerMetrics() {
			metrics = append(metrics, figure{name: m.name, value: layer[m.name], unit: m.unit})
		}
		printFigures(stdout, metrics)
		spans := filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
		if err := l.writeSpans(spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %s\n", spans)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	if code := printJSON(stdout, stderr, res); code != 0 {
		return fmt.Errorf("printing result")
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// workers is the scheduler width: one worker per CPU, but at least two,
// because one worker selects the sweep's sequential legacy path, which has
// no cache and would change which layers the workload exercises.
func workers() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// runSetups generates the workload's traces several times, each in a
// child process and its own directory, and returns the times and the
// directories.
func runSetups(name string, seed uint64, work string) ([]setupTimes, []string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var times []setupTimes
	var dirs []string
	start := time.Now()
	for i := 0; i < maxSetupRounds && (i < minSetupRounds || time.Since(start) < setupBudget); i++ {
		dir := filepath.Join(work, fmt.Sprintf("traces-%d", i))
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-dir", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		var st setupTimes
		if err := json.Unmarshal(out, &st); err != nil {
			return nil, nil, fmt.Errorf("set-up output: %w", err)
		}
		times = append(times, st)
		dirs = append(dirs, dir)
	}
	return times, dirs, nil
}

// checkDeterministic checks that two set-ups of the same seed wrote
// byte-identical traces.
func checkDeterministic(p *phase, log io.Writer, a, b string) {
	p.attempted++
	entries, err := os.ReadDir(a)
	if err != nil || len(entries) == 0 {
		p.fail(log, "set-up wrote no traces: %v", err)
		return
	}
	for _, e := range entries {
		da, errA := journal.DigestFile(filepath.Join(a, e.Name()))
		db, errB := journal.DigestFile(filepath.Join(b, e.Name()))
		if errA != nil || errB != nil || da != db {
			p.fail(log, "set-up is not deterministic: %s differs between two set-ups of one seed", e.Name())
			return
		}
	}
}

// traceBytes sums the bytes of the traces the measured side reads and
// their branch count.
func traceBytes(b *harness, formats []string) (int64, uint64, error) {
	var paths []string
	var branches uint64
	for _, f := range formats {
		paths = append(paths, tracePaths(b.dir, b.traces, f)...)
		for _, job := range b.traces {
			if slices.Contains(job.formats, f) {
				branches += job.spec.Branches
			}
		}
	}
	total, err := fileBytes(paths)
	return total, branches, err
}

// environment describes the machine the numbers were taken on.
func environment(b *harness) [][2]string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return [][2]string{
		{"nproc", strconv.Itoa(runtime.NumCPU())},
		{"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))},
		{"workers", strconv.Itoa(b.jobs)},
		{"go", runtime.Version()},
		{"cpu", cpu},
		{"trace_fs", fsType(b.dir)},
		{"job_fs", fsType(b.work)},
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func printFigures(w io.Writer, figs []figure) {
	for _, f := range figs {
		v := strconv.FormatFloat(f.value, 'g', 6, 64)
		if f.na {
			v = "n/a"
		}
		fmt.Fprintf(w, "%-34s %16s  %s\n", f.name, v, f.unit)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(stdout, stderr io.Writer, v any) int {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := stdout.Write(buf.Bytes()); err != nil {
		return 1
	}
	return 0
}
