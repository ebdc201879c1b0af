// Command mbpd is the sweep daemon: a long-running server that executes
// parameter sweeps submitted over a versioned JSON HTTP API and persists
// their results. It runs the identical internal/sweep pipeline as mbpsweep,
// so a job's result JSON is byte-identical to a local run of the same spec —
// `mbpctl submit` + `mbpctl wait` is a drop-in remote mbpsweep.
//
//	mbpd -data-dir /var/lib/mbpd -listen 127.0.0.1:7323
//
// The API (see internal/api) lives under /v1:
//
//	POST   /v1/jobs              submit a sweep spec
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status and result
//	GET    /v1/jobs/{id}/result  verbatim result bytes (?format=json|text)
//	GET    /v1/jobs/{id}/events  SSE progress stream
//	DELETE /v1/jobs/{id}         cancel (drain) a job
//	GET    /v1/healthz           daemon health ("ok" or "draining")
//
// Jobs are keyed by content (trace digests + expanded predictor specs +
// policy), so resubmitting finished work is a cache hit and a restarted
// daemon serves completed jobs from its data directory without simulating.
// Every job runs over its own resume journal; a SIGKILL'd daemon replays
// finished cells on the next run. All jobs share one decoded-trace cache
// (-cache-bytes), keyed by trace content, so a job over traces an earlier
// job read starts warm.
//
// With -listen on port 0 the kernel picks a free port; the bound address is
// written to <data-dir>/mbpd.addr for clients and scripts to discover.
//
// SIGINT/SIGTERM drain gracefully: submissions are refused (503, healthz
// reports "draining"), the in-flight job checkpoints and journals its
// unfinished cells as resumable, then the process exits — 0 when all
// admitted work finished, 4 (the drained code) when interrupted work
// remains for the next start. A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mbplib/internal/cliflags"
	"mbplib/internal/daemon"
	"mbplib/internal/sim"
	"mbplib/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen     = fs.String("listen", "127.0.0.1:0", "host:port to serve the API on (port 0 = kernel-assigned)")
		dataDir    = fs.String("data-dir", "", "job store directory (jobs, journals, address file)")
		jobs       = fs.Int("j", runtime.GOMAXPROCS(0), "scheduler workers per sweep job")
		cacheBytes = fs.Int64("cache-bytes", sim.DefaultCacheBytes, "decoded-trace cache budget, shared by all jobs (0 disables)")
		queue      = fs.Int("queue", daemon.DefaultQueueDepth, "max admitted-but-unfinished jobs before submissions get 503")
		ckptEvery  = fs.Uint64("checkpoint-every", cliflags.DefaultCheckpointEvery, "events between in-flight cell checkpoints (0 disables)")
		cellTime   = fs.Duration("cell-timeout", 0, "time budget per (value, trace) cell: its trace's shared reading time plus its own simulation (0 = none)")
		backoff    = fs.Duration("retry-backoff", 100*time.Millisecond, "delay before the first transient-open retry (doubles per attempt)")
		snapEvery  = fs.Duration("snapshot-every", daemon.DefaultSnapshotEvery, "cadence of SSE progress snapshots")
	)
	if err := fs.Parse(args); err != nil {
		return sweep.ExitUsage
	}
	// The whole validation table runs before the data directory or the
	// listener is touched, so a usage error has no side effects.
	if err := cliflags.Validate(
		cliflags.Listen(*listen),
		cliflags.DataDir(*dataDir),
		cliflags.Workers(*jobs),
		cliflags.CacheBytes(*cacheBytes),
		cliflags.QueueDepth(*queue),
		cliflags.CellTimeout(*cellTime),
		cliflags.SnapshotEvery(*snapEvery),
	); err != nil {
		fmt.Fprintln(stderr, "mbpd:", err)
		return sweep.ExitUsage
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	d, err := daemon.New(daemon.Config{
		DataDir: *dataDir,
		Jobs:    *jobs, CacheBytes: cliflags.CacheBudget(*cacheBytes),
		QueueDepth:      *queue,
		CheckpointEvery: *ckptEvery, CellTimeout: *cellTime, Backoff: *backoff,
		SnapshotEvery: *snapEvery,
		Logf:          logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "mbpd:", err)
		return sweep.ExitUsage
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "mbpd:", err)
		return sweep.ExitUsage
	}
	addr := ln.Addr().String()
	addrFile := filepath.Join(*dataDir, "mbpd.addr")
	if err := writeAddrFile(addrFile, addr); err != nil {
		fmt.Fprintln(stderr, "mbpd:", err)
		ln.Close()
		return sweep.ExitUsage
	}
	defer func() {
		if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
			logf("mbpd: removing address file: %v", err)
		}
	}()
	logf("mbpd: listening on %s (data dir %s)", addr, *dataDir)

	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	d.Start()

	drain, stopSignals := cliflags.DrainOnSignal("mbpd", stderr)
	defer stopSignals()

	select {
	case err := <-serveErr:
		// The listener died under us; drain what's running and report.
		fmt.Fprintln(stderr, "mbpd:", err)
		if cerr := d.Close(); cerr != nil {
			logf("mbpd: close: %v", cerr)
		}
		return sweep.ExitTotal
	case <-drain:
	}

	// Graceful drain: refuse new work (healthz says "draining") while the
	// in-flight job checkpoints, then stop the HTTP server and join the
	// serve goroutine.
	d.Drain()
	if err := d.Close(); err != nil {
		logf("mbpd: close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("mbpd: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("mbpd: serve: %v", err)
	}
	if d.Interrupted() {
		logf("mbpd: interrupted work remains; restart with the same -data-dir to resume")
		return sweep.ExitDrained
	}
	logf("mbpd: clean shutdown")
	return sweep.ExitOK
}

// writeAddrFile publishes the bound address atomically so a watcher never
// reads a half-written file.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
