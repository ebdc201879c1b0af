// Chunk-path equivalence: sweeps over seekable (MLZS) containers through the
// chunk-granular cache path must produce byte-identical result JSON to the
// sequential streaming path, for every warmup/limit configuration, with
// fault classes preserved — the MLZS mirror of the reader-equivalence
// tables.
package sim_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/chunked"
	"mbplib/internal/compress"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
)

// writeMLZS encodes evs as a plain SBBT trace inside an aligned MLZS
// container at path, with a small chunk size so even short test traces span
// many chunks.
func writeMLZS(t *testing.T, path string, evs []bp.Event, chunkSize int) {
	t.Helper()
	f, err := compress.CreateMLZSFile(path, compress.MLZSOptions{
		ChunkSize:   chunkSize,
		Level:       compress.LevelBest,
		Align:       sbbt.PacketSize,
		AlignOffset: sbbt.HeaderSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeSBBT(t, evs, false)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// mlzsSource builds a TraceSource for an MLZS file: a streaming open, plus
// the chunk-granular open when chunkAccess is set.
func mlzsSource(path string, chunkAccess bool) sim.TraceSource {
	src := sim.TraceSource{Name: path, Open: func() (bp.Reader, io.Closer, error) {
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
	}}
	if chunkAccess {
		src.OpenChunked = func() (sim.ChunkedTrace, error) { return chunked.Open(path) }
	}
	return src
}

// chunkEquivTraces writes two MLZS traces (different kernels and seeds, one
// with a partially-filled final chunk) and returns their paths.
func chunkEquivTraces(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	specA, specB := equivSpec(12000), equivSpec(8000)
	specB.Name, specB.Seed = "equiv-b", 31
	paths := []string{filepath.Join(dir, "a.sbbt.mlzs"), filepath.Join(dir, "b.sbbt.mlzs")}
	// 4096-byte chunks hold 256 packets migrating to ~16 chunks per trace;
	// neither trace fills its last chunk, so end-of-trace lands mid-chunk.
	writeMLZS(t, paths[0], generate(t, specA), 4096)
	writeMLZS(t, paths[1], generate(t, specB), 4096)
	return paths
}

var chunkEquivConfigs = map[string]sim.Config{
	"plain":  {},
	"warmup": {WarmupInstructions: 4000},
	"limit":  {SimInstructions: 6000},
	"both":   {WarmupInstructions: 2000, SimInstructions: 5000},
}

// TestChunkedSweepMatchesStreaming: the chunk-granular cache path produces
// byte-identical sweeps to sequential streaming, across configs.
func TestChunkedSweepMatchesStreaming(t *testing.T) {
	paths := chunkEquivTraces(t)
	streamSrcs := []sim.TraceSource{mlzsSource(paths[0], false), mlzsSource(paths[1], false)}
	chunkSrcs := []sim.TraceSource{mlzsSource(paths[0], true), mlzsSource(paths[1], true)}
	for cname, cfg := range chunkEquivConfigs {
		t.Run(cname, func(t *testing.T) {
			seq := sequentialSweep(t, streamSrcs, equivPredictors, cfg)
			par, err := sim.SweepParallel(chunkSrcs, equivPredictors, cfg, sim.ParallelOptions{
				Cache:   sim.NewCache(0),
				Workers: 4, Policy: sim.Policy{Mode: sim.SkipFailed},
			})
			if err != nil {
				t.Fatalf("SweepParallel: %v", err)
			}
			diffSweeps(t, seq, par, equivPredictors)
		})
	}
}

// TestChunkedSweepRecordsReads: chunk loads are timed as reads, so a sweep
// over the chunk path reports where its decode time went.
func TestChunkedSweepRecordsReads(t *testing.T) {
	paths := chunkEquivTraces(t)
	col := obs.New()
	srcs := []sim.TraceSource{mlzsSource(paths[0], true), mlzsSource(paths[1], true)}
	if _, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 2, Policy: sim.Policy{Mode: sim.SkipFailed}, Metrics: col,
	}); err != nil {
		t.Fatalf("SweepParallel: %v", err)
	}
	s := col.Snapshot()
	if s.Counters["cache_misses"] == 0 {
		t.Fatalf("no chunk was loaded through the cache: %v", s.Counters)
	}
	if s.Stages["read"].Count == 0 || s.Counters["batches"] == 0 {
		t.Errorf("chunk loads not timed: read stage count %d, batches %d", s.Stages["read"].Count, s.Counters["batches"])
	}
}

// corruptChunkFile flips one payload byte of a mid-container chunk and
// returns the chunk's raw offset, so configs can stop before or run past it.
func corruptChunkFile(t *testing.T, path string) (chunk int, rawOff int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := compress.ReadMLZSIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumChunks() < 4 {
		t.Fatalf("want >= 4 chunks, got %d", ix.NumChunks())
	}
	chunk = ix.NumChunks() - 2
	ci := ix.Chunks[chunk]
	// Flip a byte in the middle of the chunk's compressed payload. The frame
	// header (tag, lengths, kind, CRC) is at most 26 bytes; aim past it.
	data[ci.Off+30] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return chunk, ci.RawOff
}

// TestChunkedFaultEquivalence: a single corrupt chunk produces the same
// failure class and result JSON on the chunk path as on streaming, fails
// only the cells that read past it, and is invisible to limits that stop
// short of the damaged chunk.
func TestChunkedFaultEquivalence(t *testing.T) {
	paths := chunkEquivTraces(t)
	_, rawOff := corruptChunkFile(t, paths[1])
	// rawOff bytes of packets ≈ rawOff/16 branches before the bad chunk; a
	// limit far below that never touches the corruption.
	shortLimit := uint64(rawOff / sbbt.PacketSize / 4)
	if shortLimit == 0 {
		t.Fatalf("corrupt chunk too close to the start (raw offset %d)", rawOff)
	}
	for _, tc := range []struct {
		name     string
		cfg      sim.Config
		wantFail bool
	}{
		{"limit-stops-early", sim.Config{SimInstructions: shortLimit}, false},
		{"limit-past-fault", sim.Config{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			streamSrcs := []sim.TraceSource{mlzsSource(paths[0], false), mlzsSource(paths[1], false)}
			chunkSrcs := []sim.TraceSource{mlzsSource(paths[0], true), mlzsSource(paths[1], true)}
			seq := sequentialSweep(t, streamSrcs, equivPredictors, tc.cfg)
			par, err := sim.SweepParallel(chunkSrcs, equivPredictors, tc.cfg, sim.ParallelOptions{
				Cache:   sim.NewCache(0),
				Workers: 4, Policy: sim.Policy{Mode: sim.SkipFailed},
			})
			if err != nil {
				t.Fatalf("SweepParallel: %v", err)
			}
			diffSweeps(t, seq, par, equivPredictors)
			for pi := range equivPredictors {
				// The intact trace always scores; the damaged one fails only
				// when the run reads past the corrupt chunk.
				if par[pi].Results[0] == nil {
					t.Errorf("predictor %d: intact trace failed", pi)
				}
				gotFail := par[pi].Results[1] == nil
				if gotFail != tc.wantFail {
					t.Errorf("predictor %d: corrupt trace failed=%v, want %v", pi, gotFail, tc.wantFail)
				}
				if tc.wantFail && par[pi].Failures[0].Class != "corrupt" {
					t.Errorf("predictor %d: class %q, want corrupt", pi, par[pi].Failures[0].Class)
				}
			}
		})
	}
}

// TestChunkedTruncatedContainerFallsBack: a container whose index trailer is
// cut off is ineligible for the chunk path (chunked.Open rejects it), and the
// scheduler silently falls back to streaming — which reports the truncation
// with the same typed class as the sequential path.
func TestChunkedTruncatedContainerFallsBack(t *testing.T) {
	paths := chunkEquivTraces(t)
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := chunked.Open(paths[1]); err == nil {
		t.Fatal("chunked.Open accepted a truncated container")
	}
	streamSrcs := []sim.TraceSource{mlzsSource(paths[0], false), mlzsSource(paths[1], false)}
	chunkSrcs := []sim.TraceSource{mlzsSource(paths[0], true), mlzsSource(paths[1], true)}
	seq := sequentialSweep(t, streamSrcs, equivPredictors, sim.Config{})
	par, err := sim.SweepParallel(chunkSrcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 4, Policy: sim.Policy{Mode: sim.SkipFailed},
	})
	if err != nil {
		t.Fatalf("SweepParallel: %v", err)
	}
	diffSweeps(t, seq, par, equivPredictors)
	for pi := range equivPredictors {
		if len(par[pi].Failures) != 1 || par[pi].Failures[0].Class != "truncated" {
			t.Errorf("predictor %d: failures = %+v, want one truncated", pi, par[pi].Failures)
		}
	}
}

// TestChunkedTinyCacheMatches: a cache too small to pin any chunk forces the
// direct-decode fallback inside the chunk path; results stay identical.
func TestChunkedTinyCacheMatches(t *testing.T) {
	paths := chunkEquivTraces(t)
	streamSrcs := []sim.TraceSource{mlzsSource(paths[0], false), mlzsSource(paths[1], false)}
	chunkSrcs := []sim.TraceSource{mlzsSource(paths[0], true), mlzsSource(paths[1], true)}
	seq := sequentialSweep(t, streamSrcs, equivPredictors, sim.Config{})
	par, err := sim.SweepParallel(chunkSrcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
		Workers: 4, Cache: sim.NewCache(64), Policy: sim.Policy{Mode: sim.SkipFailed},
	})
	if err != nil {
		t.Fatalf("SweepParallel: %v", err)
	}
	diffSweeps(t, seq, par, equivPredictors)
}

// TestChunkedTraceDirect pins down the chunked.Trace contract itself:
// concatenated chunk decodes equal the streaming event sequence, and the
// header accessors match the SBBT header.
func TestChunkedTraceDirect(t *testing.T) {
	dir := t.TempDir()
	evs := generate(t, equivSpec(5000))
	path := filepath.Join(dir, "t.sbbt.mlzs")
	writeMLZS(t, path, evs, 2048)

	ct, err := chunked.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if ct.TotalBranches() != uint64(len(evs)) {
		t.Errorf("TotalBranches = %d, want %d", ct.TotalBranches(), len(evs))
	}
	var got []bp.Event
	for i := 0; i < ct.NumChunks(); i++ {
		chunk, err := ct.DecodeChunk(i)
		if err != nil {
			t.Fatalf("DecodeChunk(%d): %v", i, err)
		}
		got = append(got, chunk...)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range got {
		if got[i] != evs[i] {
			t.Fatalf("event %d differs between chunk decode and generator", i)
		}
	}
}

// TestChunkedOpenRejectsUnaligned: containers without packet alignment (the
// default recompress output for non-SBBT payloads) stream instead.
func TestChunkedOpenRejectsUnaligned(t *testing.T) {
	dir := t.TempDir()
	evs := generate(t, equivSpec(3000))
	path := filepath.Join(dir, "t.sbbt.mlzs")
	f, err := compress.CreateMLZSFile(path, compress.MLZSOptions{ChunkSize: 2048, Level: compress.LevelBest})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeSBBT(t, evs, false)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := chunked.Open(path); err == nil {
		t.Fatal("chunked.Open accepted an unaligned container")
	}
}

// TestChunkedOpenRejectsChecksummed: checksummed SBBT interleaves CRC
// trailers with packets, so chunk boundaries cannot be packet-aligned in the
// record sense; those traces stream.
func TestChunkedOpenRejectsChecksummed(t *testing.T) {
	dir := t.TempDir()
	evs := generate(t, equivSpec(3000))
	path := filepath.Join(dir, "t.sbbt.mlzs")
	f, err := compress.CreateMLZSFile(path, compress.MLZSOptions{
		ChunkSize: 2048, Level: compress.LevelBest,
		Align: sbbt.PacketSize, AlignOffset: sbbt.HeaderSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeSBBT(t, evs, true)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := chunked.Open(path); err == nil {
		t.Fatal("chunked.Open accepted a checksummed trace")
	}
}

// closeTracked records that a chunked trace was closed, and checks that it
// is closed once and that no chunk is decoded through it afterwards.
type closeTracked struct {
	sim.ChunkedTrace
	closed *atomic.Bool
	t      *testing.T
}

func (c closeTracked) DecodeChunk(i int) ([]bp.Event, error) {
	if c.closed.Load() {
		c.t.Errorf("chunk %d decoded after Close", i)
	}
	return c.ChunkedTrace.DecodeChunk(i)
}

func (c closeTracked) Close() error {
	if c.closed.Swap(true) {
		c.t.Error("chunked trace closed twice")
	}
	return c.ChunkedTrace.Close()
}

// TestSweepParallelOpensChunkedOnce: the cells of one trace share a single
// chunked open per sweep, closed once after they finish, and a failed open
// is one verdict — every cell of that trace streams it whole. Either way
// the results equal a cache-off run, which streams every cell.
func TestSweepParallelOpensChunkedOnce(t *testing.T) {
	paths := chunkEquivTraces(t)
	preds := []sim.PredictorSpec{equivPredictors[0], equivPredictors[1],
		{Name: "gshare-h4", New: func() bp.Predictor { return gshare.New(gshare.WithHistoryLength(4)) }}}
	var streamSrcs []sim.TraceSource
	for _, p := range paths {
		streamSrcs = append(streamSrcs, mlzsSource(p, false))
	}
	ref, err := sim.SweepParallel(streamSrcs, preds, sim.Config{}, sim.ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range []bool{false, true} {
		opens := make([]atomic.Int32, len(paths))
		closes := make([]atomic.Bool, len(paths))
		srcs := make([]sim.TraceSource, len(paths))
		for i, p := range paths {
			srcs[i] = mlzsSource(p, false)
			srcs[i].OpenChunked = func() (sim.ChunkedTrace, error) {
				opens[i].Add(1)
				if fail {
					return nil, errors.New("not eligible")
				}
				ct, err := chunked.Open(p)
				if err != nil {
					return nil, err
				}
				return closeTracked{ct, &closes[i], t}, nil
			}
		}
		for run := 0; run < 2; run++ { // a second sweep opens again
			got, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{
				Workers: 2, Cache: sim.NewCache(0),
			})
			if err != nil {
				t.Fatal(err)
			}
			diffSweeps(t, ref, got, preds)
			for i := range paths {
				if n := opens[i].Load(); n != int32(run+1) {
					t.Errorf("fail=%v sweep %d: trace %d opened %d times in all, want %d", fail, run, i, n, run+1)
				}
				if !fail && !closes[i].Load() {
					t.Errorf("sweep %d: trace %d left open", run, i)
				}
				closes[i].Store(false)
			}
		}
	}
}
