// Cache-path equivalence over chunked (MLZS) containers: sweeps that read
// packet-aligned .sbbt.mlzs traces through the decoded-trace cache must
// produce byte-identical result JSON to the sequential streaming path, for
// every warmup/limit configuration, with fault classes preserved — the MLZS
// mirror of the reader-equivalence tables.
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
	"mbplib/internal/compress"
	"mbplib/internal/obs"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/sim/tracecache"
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

// mlzsSource builds a TraceSource for a compressed SBBT file (.sbbt.mlzs or
// .sbbt.mlz): transparent decompression, then the SBBT reader.
func mlzsSource(path string) sim.TraceSource {
	return sim.TraceSource{Name: path, Open: func() (bp.Reader, io.Closer, error) {
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

// TestChunkedSweepMatchesStreaming: a sweep over .sbbt.mlzs traces through
// the cache is byte-identical to sequential streaming, across configs.
func TestChunkedSweepMatchesStreaming(t *testing.T) {
	paths := chunkEquivTraces(t)
	srcs := []sim.TraceSource{mlzsSource(paths[0]), mlzsSource(paths[1])}
	for cname, cfg := range chunkEquivConfigs {
		t.Run(cname, func(t *testing.T) {
			seq := sequentialSweep(t, srcs, equivPredictors, cfg)
			par, err := sim.SweepParallel(srcs, equivPredictors, cfg, sim.ParallelOptions{
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

// TestChunkedSweepRecordsReads: cache loads are timed as reads, so a sweep
// through the cache reports where its decode time went.
func TestChunkedSweepRecordsReads(t *testing.T) {
	paths := chunkEquivTraces(t)
	col := obs.New()
	srcs := []sim.TraceSource{mlzsSource(paths[0]), mlzsSource(paths[1])}
	if _, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
		Cache:   sim.NewCache(0),
		Workers: 2, Policy: sim.Policy{Mode: sim.SkipFailed}, Metrics: col,
	}); err != nil {
		t.Fatalf("SweepParallel: %v", err)
	}
	s := col.Snapshot()
	if s.Counters["cache_misses"] == 0 {
		t.Fatalf("no trace was loaded through the cache: %v", s.Counters)
	}
	if s.Stages["read"].Count == 0 || s.Counters["batches"] == 0 {
		t.Errorf("cache loads not timed: read stage count %d, batches %d", s.Stages["read"].Count, s.Counters["batches"])
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
// failure class and result JSON through the cache as on streaming, fails
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
			srcs := []sim.TraceSource{mlzsSource(paths[0]), mlzsSource(paths[1])}
			seq := sequentialSweep(t, srcs, equivPredictors, tc.cfg)
			par, err := sim.SweepParallel(srcs, equivPredictors, tc.cfg, sim.ParallelOptions{
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

// TestChunkedTruncatedContainerFallsBack: a container cut in half, index
// trailer and all, read through the cache reports the truncation with the
// same typed class and result JSON as the sequential path.
func TestChunkedTruncatedContainerFallsBack(t *testing.T) {
	paths := chunkEquivTraces(t)
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	srcs := []sim.TraceSource{mlzsSource(paths[0]), mlzsSource(paths[1])}
	seq := sequentialSweep(t, srcs, equivPredictors, sim.Config{})
	par, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
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

// TestChunkedTinyCacheMatches: a cache too small to hold any trace turns
// every one away by its header, and the cells stream; results stay
// identical.
func TestChunkedTinyCacheMatches(t *testing.T) {
	paths := chunkEquivTraces(t)
	srcs := []sim.TraceSource{mlzsSource(paths[0]), mlzsSource(paths[1])}
	seq := sequentialSweep(t, srcs, equivPredictors, sim.Config{})
	cache := sim.NewCache(64)
	par, err := sim.SweepParallel(srcs, equivPredictors, sim.Config{}, sim.ParallelOptions{
		Workers: 4, Cache: cache, Policy: sim.Policy{Mode: sim.SkipFailed},
	})
	if err != nil {
		t.Fatalf("SweepParallel: %v", err)
	}
	diffSweeps(t, seq, par, equivPredictors)
	if st := cache.Stats(); st.TooBig != uint64(len(srcs)) || st.BytesUsed != 0 {
		t.Errorf("cache stats %+v, want every trace turned away once and nothing resident", st)
	}
}

// TestChunkedOversizeTraceLeavesOthersResident: a trace larger than the
// budget is turned away by its header, undecoded, so it evicts nothing: a
// small trace read before it is still resident, and read again it hits.
func TestChunkedOversizeTraceLeavesOthersResident(t *testing.T) {
	dir := t.TempDir()
	small, big := filepath.Join(dir, "small.sbbt.mlzs"), filepath.Join(dir, "big.sbbt.mlzs")
	smallSpec, bigSpec := equivSpec(2000), equivSpec(40000)
	bigSpec.Name, bigSpec.Seed = "big", 17
	writeMLZS(t, small, generate(t, smallSpec), 4096)
	writeMLZS(t, big, generate(t, bigSpec), 4096)
	// The small trace fits; the big one's records alone do not.
	const budget = 40000 * 8 / 3
	cache := tracecache.New(budget)
	read := func(path string) tracecache.Stats {
		t.Helper()
		srcs := []sim.TraceSource{mlzsSource(path)}
		par, err := sim.SweepParallel(srcs, equivPredictors[:1], sim.Config{}, sim.ParallelOptions{Workers: 1, Cache: cache})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		diffSweeps(t, sequentialSweep(t, srcs, equivPredictors[:1], sim.Config{}), par, equivPredictors[:1])
		st := cache.Stats()
		if st.BytesUsed > budget {
			t.Fatalf("after reading %s: %d bytes resident, budget %d", filepath.Base(path), st.BytesUsed, budget)
		}
		return st
	}
	if st := read(small); st.Misses != 1 || st.BytesUsed == 0 {
		t.Fatalf("small trace not admitted: %+v", st)
	}
	if st := read(big); st.TooBig != 1 || st.Evictions != 0 {
		t.Errorf("after the big trace: %+v, want one too-big verdict and no evictions", st)
	}
	if st := read(small); st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 {
		t.Errorf("small trace read again: %+v, want a hit and no evictions", st)
	}
}

// TestSweepParallelWarmCacheOpensNothing: a sweep over traces a cache
// already holds replays them without opening any file, .sbbt.mlz and
// .sbbt.mlzs alike; OpenChunked is never called, cold or warm. The warm
// results equal a cache-off run's.
func TestSweepParallelWarmCacheOpensNothing(t *testing.T) {
	paths := chunkEquivTraces(t)
	mlz := filepath.Join(filepath.Dir(paths[0]), "c.sbbt.mlz")
	f, err := compress.CreateFile(mlz, compress.LevelFast)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeSBBT(t, generate(t, equivSpec(5000)), false)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	paths = append(paths, mlz)
	preds := []sim.PredictorSpec{equivPredictors[0], equivPredictors[1],
		{Name: "gshare-h4", New: func() bp.Predictor { return gshare.New(gshare.WithHistoryLength(4)) }}}
	srcs := make([]sim.TraceSource, len(paths))
	for i, p := range paths {
		srcs[i] = mlzsSource(p)
	}
	ref, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	opens := countOpens(srcs)
	var chunkedOpens atomic.Int32
	for i := range srcs {
		srcs[i].OpenChunked = func() (sim.ChunkedTrace, error) {
			chunkedOpens.Add(1)
			return nil, errors.New("no chunked access")
		}
	}
	cache := sim.NewCache(0)
	for run := 0; run < 2; run++ {
		got, err := sim.SweepParallel(srcs, preds, sim.Config{}, sim.ParallelOptions{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		diffSweeps(t, ref, got, preds)
		for i, n := range opens {
			if want := int32(1); n.Load() != want {
				t.Errorf("after sweep %d: %s opened %d times, want %d", run, filepath.Base(paths[i]), n.Load(), want)
			}
		}
		if n := chunkedOpens.Load(); n != 0 {
			t.Errorf("after sweep %d: OpenChunked called %d times, want 0", run, n)
		}
	}
}
