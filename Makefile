# Developer entry points. `make check` runs the same suite as CI
# (.github/workflows/ci.yml); keep the two in sync.

GO ?= go
FUZZTIME ?= 20s

.PHONY: check fmt vet build test perfbench-test race race-sweep race-kernel race-daemon race-resume mbpvet vet-fix vet-sarif fault-sweep fuzz-smoke daemon-smoke bench bench-smoke bench-snapshot bench-check metrics-overhead journal-overhead golden

check: fmt vet build test perfbench-test race race-sweep race-kernel race-daemon race-resume mbpvet fault-sweep fuzz-smoke daemon-smoke bench-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is its own module (replace mbplib => ../), outside ./...
perfbench-test:
	cd perfbench && $(GO) test ./...

race:
	$(GO) test -race ./internal/...

# Parallel sweep equivalence under the race detector on a constrained
# scheduler: GOMAXPROCS=2 forces worker goroutines to interleave on few
# threads. The cached-vs-streaming .sbbt.mlzs suites, the trace cache's
# single-flight, waiter and per-caller collector tests, the static-table
# tests (cells replay entries while other cells load and evict them) and
# the trace-group tests (lanes share each prepared batch) ride along.
race-sweep:
	GOMAXPROCS=2 $(GO) test -race -run 'TestSweepParallel|TestChunked|TestAcquireDecodesOnce|TestAcquireChunkSingleFlight|TestAcquireCancelledWhileWaiting|TestWaiterOutlivesLoaderContext|TestCollectorPerCaller|TestStaticTable|TestTable|TestRecordRoundTrip|TestGroup' ./internal/sim/...

# Kernel-vs-scalar equivalence under the race detector: every batch-kernel
# dispatch path (single runs and comparisons with warm-up/limit edges,
# parallel sweeps at several worker counts, journalled replays) must produce
# byte-identical results with the kernels stripped. The comparison-set tests
# ride along: comparisons on the sweep scheduler at several worker counts, a
# panicking predictor, and a drain closed before the set starts.
race-kernel:
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'TestKernelRunMatchesScalar|TestSweepParallelKernelScalarEquivalence|TestCompareMatchesOracle|TestCompareMatchesRun|TestCompareSet' ./internal/sim/

# Remote-vs-local sweep equivalence under the race detector on a
# constrained scheduler: the daemon path (submit over the HTTP API, wait,
# render) must print byte-identical output to the local mbpsweep pipeline
# while the runner, SSE watchers and drain merger interleave on two threads.
race-daemon:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/daemon/ ./cmd/mbpctl/ ./cmd/mbpd/

# The resumable-cell suite under the race detector: journal replay (records
# of live cells and legacy records that carry a most_failed report), the
# size of a journalled cell, drain with checkpoint and resume, lanes of one
# trace group resuming from checkpoints of their own (one stale), cell
# deadlines: a slow lane beside a fast one, and deadlines and drains that
# land during open retries, and the simcell checkpoint versions: version-1
# fixtures of a reporting cell and of a sweep lane resuming, version 2
# round-tripping and refused by a cell that reports, and the seeds of
# FuzzCellState.
race-resume:
	$(GO) test -race -run 'TestSweepParallelJournalReplay|TestSweepParallelJournalCellBytes|TestSweepParallelCheckpointDrainResume|TestSweepParallelCellTimeout|TestSweepParallelCellTimeoutDuringOpenRetry|TestSweepParallelDrainDuringOpenRetry|TestSweepParallelOneWorkerDrain|TestSweepParallelLanesResumeOwnCheckpoints|TestSweepParallelCellTimeoutSlowLane|TestCellState|FuzzCellState' ./internal/sim/

# End-to-end service smoke over real processes and a real TCP port: build
# mbpd + mbpctl, submit a generated-trace sweep, diff the result JSON
# against a local mbpsweep run, prove the resubmit cache hit, then drain
# with SIGTERM. See scripts/daemon_smoke.sh.
daemon-smoke:
	sh scripts/daemon_smoke.sh

mbpvet:
	$(GO) run ./cmd/mbpvet ./...

# Apply mbpvet's suggested fixes (atomic load/store rewrites, context
# substitutions) in place, then report whatever remains.
vet-fix:
	$(GO) run ./cmd/mbpvet -fix ./...

# Render the findings as SARIF 2.1.0 for code-scanning upload; exit status
# still reports findings, so `|| true` when only the report is wanted.
vet-sarif:
	$(GO) run ./cmd/mbpvet -sarif ./...

# The exhaustive fault-injection sweep: truncations and bit-flips at every
# byte offset of every trace format, plus hostile headers and short reads.
fault-sweep:
	$(GO) test -run 'TestSweep' -v ./internal/faults/

# Full timing runs of the batching benchmarks (read stage, simulation and
# the parallel sweep scheduler).
bench:
	$(GO) test -run=NONE -bench 'BenchmarkSBBTRead|BenchmarkRun|BenchmarkSweep' -benchtime=2s ./internal/bench/

# One iteration per benchmark: proves the benchmarks still compile and run
# without paying for stable timings. Used by CI.
bench-smoke:
	$(GO) test -run=NONE -bench 'BenchmarkSBBTRead|BenchmarkRun|BenchmarkSweep' -benchtime=1x ./internal/bench/

# Regenerate the committed BENCH_sim.json over a 2M-branch trace.
bench-snapshot:
	$(GO) run ./cmd/mbpbench -sim-snapshot BENCH_sim.json -scale 2000000

# Soft regression gate: re-measure the snapshot stages at reduced scale and
# fail only on a >2x throughput regression against the committed snapshot.
# Absolute numbers vary wildly across machines; this catches accidents like
# an O(n^2) decode loop, not ordinary noise.
bench-check:
	$(GO) run ./cmd/mbpbench -sim-check BENCH_sim.json -scale 200000 -sim-rounds 1

# Timing half of the observability contract: instrumented sim.Run within
# 10% of a metrics-disabled run. Env-gated because it is machine-sensitive;
# CI runs it in the continue-on-error bench-check job.
metrics-overhead:
	MBP_METRICS_OVERHEAD=1 $(GO) test -run TestMetricsOverheadSmoke -v ./internal/bench/

# Timing half of the durability contract: journalling every cell result must
# stay under 3% of cell time at snapshot scale. Env-gated like the metrics
# smoke; CI runs it in the continue-on-error bench-check job.
journal-overhead:
	MBP_JOURNAL_OVERHEAD=1 $(GO) test -run TestJournalOverheadSmoke -v ./internal/bench/

# Regenerate the golden files for the example programs after an intentional
# output change; the diff is the review artifact.
golden:
	$(GO) test ./examples -update

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzSBBTRoundTrip -fuzztime=$(FUZZTIME) ./internal/sbbt/
	$(GO) test -run=NONE -fuzz=FuzzBT9RoundTrip -fuzztime=$(FUZZTIME) ./internal/bt9/
	$(GO) test -run=NONE -fuzz=FuzzMLZRoundTrip -fuzztime=$(FUZZTIME) ./internal/compress/
	$(GO) test -run=NONE -fuzz=FuzzMLZSRoundTrip -fuzztime=$(FUZZTIME) ./internal/compress/
	$(GO) test -run=NONE -fuzz=FuzzMLZSIndexTrailer -fuzztime=$(FUZZTIME) ./internal/compress/
	$(GO) test -run=NONE -fuzz=FuzzMLZDecode -fuzztime=$(FUZZTIME) ./internal/compress/
	$(GO) test -run=NONE -fuzz=FuzzJournalRecord -fuzztime=$(FUZZTIME) ./internal/sim/journal/
