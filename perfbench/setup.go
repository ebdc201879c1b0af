package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/bt9"
	"mbplib/internal/compress"
	"mbplib/internal/sbbt"
	"mbplib/internal/tracegen"
)

// Trace formats the workloads read.
const (
	fmtSBBTMLZ  = ".sbbt.mlz"  // MBPlib distribution format, streamed (whole-trace cache path)
	fmtSBBTMLZS = ".sbbt.mlzs" // packet-aligned seekable container (chunk cache path)
	fmtBT9Gz    = ".bt9.gz"    // the CBP5 framework's distribution format
)

// mlzsChunkBytes is the raw chunk size of the seekable traces: small enough
// that each trace spans several chunks, so the chunk path does real work.
const mlzsChunkBytes = 256 << 10

// traceJob is one trace to materialise: a generator spec and the formats
// to write it in.
type traceJob struct {
	spec    tracegen.Spec
	formats []string
}

// setupTimes splits set-up time into generating events and encoding plus
// compressing them.
type setupTimes struct {
	TracegenS float64 `json:"tracegen_s"`
	CompressS float64 `json:"compress_s"`
}

func (s setupTimes) total() float64 { return s.TracegenS + s.CompressS }

// reseed derives a workload's trace seeds from the benchmark seed, so the
// same --seed gives the same traces and another seed different ones of the
// same shape.
func reseed(specs []tracegen.Spec, seed, salt uint64) []tracegen.Spec {
	out := append([]tracegen.Spec(nil), specs...)
	for i := range out {
		out[i].Seed ^= splitmix(seed ^ salt)
	}
	return out
}

// splitmix is the SplitMix64 finaliser: a well-mixed 64-bit hash.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// materialise generates every trace of jobs under dir in its formats.
func materialise(dir string, jobs []traceJob) (setupTimes, error) {
	var st setupTimes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	for _, job := range jobs {
		t := time.Now()
		events, err := generate(job.spec)
		if err != nil {
			return st, err
		}
		st.TracegenS += time.Since(t).Seconds()
		t = time.Now()
		for _, format := range job.formats {
			if err := writeTrace(filepath.Join(dir, job.spec.Name+format), events); err != nil {
				return st, fmt.Errorf("writing %s%s: %w", job.spec.Name, format, err)
			}
		}
		st.CompressS += time.Since(t).Seconds()
	}
	return st, nil
}

// generate draws a spec's whole event stream into memory.
func generate(spec tracegen.Spec) ([]bp.Event, error) {
	g, err := tracegen.New(spec)
	if err != nil {
		return nil, err
	}
	events := make([]bp.Event, spec.Branches)
	n := 0
	for n < len(events) {
		k, err := g.ReadBatch(events[n:])
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return events[:n], nil
}

// writeTrace encodes events in the format the path's suffix names.
func writeTrace(path string, events []bp.Event) error {
	var f *compress.File
	var err error
	if strings.HasSuffix(path, fmtSBBTMLZS) {
		f, err = compress.CreateMLZSFile(path, compress.MLZSOptions{
			ChunkSize: mlzsChunkBytes, Level: compress.LevelBest,
			Align: sbbt.PacketSize, AlignOffset: sbbt.HeaderSize,
		})
	} else {
		f, err = compress.CreateFile(path, compress.LevelBest)
	}
	if err != nil {
		return err
	}
	var w interface {
		Write(bp.Event) error
		Close() error
	}
	if strings.HasSuffix(path, fmtBT9Gz) {
		w = bt9.NewWriter(f)
	} else {
		var instr uint64
		for i := range events {
			instr += events[i].InstrsSinceLastBranch + 1
		}
		sw, err := sbbt.NewWriter(f, instr, uint64(len(events)))
		if err != nil {
			f.Close()
			return err
		}
		w = sw
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openTrace opens an SBBT trace the way the sweep package does —
// transparent decompression, then the SBBT reader — with both readers
// wrapped when tracing.
func openTrace(path string, l *layers) (bp.Reader, io.Closer, error) {
	f, err := compress.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := l.newSBBTReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// fileBytes sums the sizes of the named files.
func fileBytes(paths []string) (int64, error) {
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// tracePaths lists, in job order, the path of every trace of jobs under dir
// written in format.
func tracePaths(dir string, jobs []traceJob, format string) []string {
	var out []string
	for _, job := range jobs {
		for _, f := range job.formats {
			if f == format {
				out = append(out, filepath.Join(dir, job.spec.Name+f))
			}
		}
	}
	return out
}
