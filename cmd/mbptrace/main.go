// Command mbptrace inspects, validates and converts branch traces: the
// trace tooling of §IV-D of the MBPlib paper (the BT9↔SBBT translators are
// what made the CBP5 sets usable with the new simulator).
//
// Usage:
//
//	mbptrace info    t.sbbt.mlz
//	mbptrace convert in.bt9.gz out.sbbt.mlz
//	mbptrace convert in.sbbt out.bt9.gz
//	mbptrace verify  t.sbbt.mlz
//	mbptrace recompress -chunk-size 1048576 -compress-j 4 in.sbbt.mlz out.sbbt.mlzs
//
// recompress rewrites any supported compressed stream into the chunked
// MLZS container, preserving the inner bytes exactly. When the
// inner stream is a plain (non-checksummed) SBBT trace, chunk boundaries
// are packet-aligned, so every chunk holds whole packets.
// convert to .sbbt.mlzs aligns its output the same way. The size/ratio
// report on stdout is deterministic; the throughput line goes to stderr.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/bt9"
	"mbplib/internal/compress"
	"mbplib/internal/sbbt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	usage := func() {
		fmt.Fprintf(stderr, "usage: mbptrace info|verify <trace>\n"+
			"       mbptrace convert <in> <out>\n"+
			"       mbptrace recompress [-chunk-size N] [-compress-j N] [-level fast|best] <in> <out.mlzs>\n")
	}
	if len(args) < 2 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "info":
		err = info(args[1], stdout)
	case "verify":
		err = verify(args[1], stdout)
	case "convert":
		if len(args) != 3 {
			usage()
			return 2
		}
		err = convert(args[1], args[2])
	case "recompress":
		return recompress(args[1:], stdout, stderr)
	default:
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "mbptrace:", err)
		return 1
	}
	return 0
}

// openTrace opens a trace of either format, decompressing transparently.
func openTrace(path string) (bp.Reader, io.Closer, error) {
	f, err := compress.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	prefix, err := br.Peek(5)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, nil, err
	}
	if len(prefix) >= 5 && string(prefix) == string(sbbt.Signature[:]) {
		r, err := sbbt.NewReader(br)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return r, f, nil
	}
	r, err := bt9.NewReader(br)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

func info(path string, stdout io.Writer) error {
	r, c, err := openTrace(path)
	if err != nil {
		return err
	}
	defer c.Close()
	var (
		branches, instr uint64
		cond, taken     uint64
		statics         = map[uint64]struct{}{}
	)
	for {
		ev, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		branches++
		instr += ev.InstrsSinceLastBranch + 1
		statics[ev.Branch.IP] = struct{}{}
		if ev.Branch.Opcode.IsConditional() {
			cond++
		}
		if ev.Branch.Taken {
			taken++
		}
	}
	fmt.Fprintf(stdout, "trace:                 %s\n", path)
	fmt.Fprintf(stdout, "instructions:          %d\n", instr)
	fmt.Fprintf(stdout, "branches:              %d (%.1f%% of instructions)\n", branches, 100*float64(branches)/float64(instr))
	fmt.Fprintf(stdout, "conditional branches:  %d\n", cond)
	fmt.Fprintf(stdout, "taken fraction:        %.3f\n", float64(taken)/float64(branches))
	fmt.Fprintf(stdout, "static branches:       %d\n", len(statics))
	if s, ok := r.(bp.Sizer); ok {
		fmt.Fprintf(stdout, "header instructions:   %d\n", s.TotalInstructions())
		fmt.Fprintf(stdout, "header branches:       %d\n", s.TotalBranches())
	}
	if compress.FormatForPath(path) == compress.FormatMLZS {
		st, err := compress.StatMLZSFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "container:             mlzs, %d chunks of %d bytes\n", st.Chunks, st.ChunkSize)
		fmt.Fprintf(stdout, "container raw bytes:   %d (%.3fx over %d on disk)\n",
			st.RawSize, float64(st.RawSize)/float64(st.CompressedSize), st.CompressedSize)
		if st.Align > 0 {
			fmt.Fprintf(stdout, "container alignment:   %d (offset %d)\n", st.Align, st.AlignOffset)
		}
		index := "intact"
		if !st.Indexed {
			index = "missing (sequential scan)"
		}
		fmt.Fprintf(stdout, "container index:       %s\n", index)
	}
	return nil
}

func verify(path string, stdout io.Writer) error {
	r, c, err := openTrace(path)
	if err != nil {
		return err
	}
	defer c.Close()
	var branches uint64
	for {
		ev, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("after %d branches: %w", branches, err)
		}
		if err := ev.Branch.Validate(); err != nil {
			return fmt.Errorf("branch %d: %w", branches, err)
		}
		branches++
	}
	if s, ok := r.(bp.Sizer); ok && s.TotalBranches() != branches {
		return fmt.Errorf("header promises %d branches, trace has %d", s.TotalBranches(), branches)
	}
	fmt.Fprintf(stdout, "ok: %d branches\n", branches)
	return nil
}

// recompress rewrites a compressed stream into the chunked MLZS container.
func recompress(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbptrace recompress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		chunkSize = fs.Int("chunk-size", compress.DefaultMLZSChunkSize, "target decompressed bytes per chunk")
		compressJ = fs.Int("compress-j", 1, "parallel compression workers (output is identical at any width)")
		level     = fs.String("level", "best", "compression effort: fast or best")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "mbptrace recompress: want exactly <in> and <out> arguments")
		return 2
	}
	lv := compress.LevelBest
	switch *level {
	case "fast":
		lv = compress.LevelFast
	case "best":
	default:
		fmt.Fprintf(stderr, "mbptrace recompress: unknown -level %q (want fast or best)\n", *level)
		return 2
	}
	if *chunkSize < 1 {
		fmt.Fprintf(stderr, "mbptrace recompress: -chunk-size must be >= 1 (got %d)\n", *chunkSize)
		return 2
	}
	if *compressJ < 1 {
		fmt.Fprintf(stderr, "mbptrace recompress: -compress-j must be >= 1 (got %d)\n", *compressJ)
		return 2
	}
	opts := compress.MLZSOptions{ChunkSize: *chunkSize, Level: lv, Workers: *compressJ}
	if err := doRecompress(fs.Arg(0), fs.Arg(1), opts, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "mbptrace:", err)
		return 1
	}
	return 0
}

// doRecompress copies the decompressed inner bytes of inPath into an MLZS
// container at outPath and reports sizes (stdout, deterministic) and
// throughput (stderr).
func doRecompress(inPath, outPath string, opts compress.MLZSOptions, stdout, stderr io.Writer) error {
	in, err := compress.OpenFile(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	br := bufio.NewReaderSize(in, 1<<16)
	// A plain SBBT inner stream gets packet-aligned chunk boundaries, so
	// every chunk holds whole packets. Checksummed SBBT interleaves CRC
	// trailers with packets, so it stays unaligned.
	if hdr, err := br.Peek(sbbt.HeaderSize); err == nil {
		if h, herr := sbbt.ParseHeader(hdr); herr == nil && !h.Checksummed {
			opts.Align = sbbt.PacketSize
			opts.AlignOffset = sbbt.HeaderSize
		}
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	w := compress.NewMLZSWriter(out, opts)
	start := time.Now()
	rawBytes, err := io.Copy(w, br)
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		out.Close()
		os.Remove(outPath)
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	inInfo, err := os.Stat(inPath)
	if err != nil {
		return err
	}
	st, err := compress.StatMLZSFile(outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "input:       %s (%d bytes)\n", inPath, inInfo.Size())
	fmt.Fprintf(stdout, "output:      %s (%d bytes)\n", outPath, st.CompressedSize)
	fmt.Fprintf(stdout, "raw:         %d bytes in %d chunks of %d\n", rawBytes, st.Chunks, st.ChunkSize)
	if st.Align > 0 {
		fmt.Fprintf(stdout, "alignment:   %d (offset %d)\n", st.Align, st.AlignOffset)
	}
	fmt.Fprintf(stdout, "ratio:       %.3fx raw, %.3fx vs input\n",
		float64(rawBytes)/float64(st.CompressedSize), float64(inInfo.Size())/float64(st.CompressedSize))
	secs := elapsed.Seconds()
	if secs > 0 {
		fmt.Fprintf(stderr, "recompressed %d bytes in %.2fs (%.1f MB/s raw)\n",
			rawBytes, secs, float64(rawBytes)/secs/(1<<20))
	}
	return nil
}

// convert reads any supported trace and writes it in the format implied by
// the output file name (.sbbt* or .bt9*), compressed per extension.
func convert(inPath, outPath string) error {
	r, c, err := openTrace(inPath)
	if err != nil {
		return err
	}
	defer c.Close()

	var out *compress.File
	if strings.HasSuffix(outPath, ".sbbt.mlzs") {
		// The SBBT writer emits plain packets, so the container gets the
		// packet-aligned chunks recompress gives plain SBBT input.
		out, err = compress.CreateMLZSFile(outPath, compress.MLZSOptions{
			Level: compress.LevelBest, Align: sbbt.PacketSize, AlignOffset: sbbt.HeaderSize,
		})
	} else {
		out, err = compress.CreateFile(outPath, compress.LevelBest)
	}
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(outPath, ".gz"), ".mlzs"), ".mlz")
	switch {
	case strings.HasSuffix(base, ".sbbt"):
		err = convertToSBBT(r, out)
	case strings.HasSuffix(base, ".bt9"):
		err = convertToBT9(r, out)
	default:
		err = fmt.Errorf("cannot infer output format from %q (want .sbbt or .bt9, optionally compressed)", outPath)
	}
	if err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func convertToSBBT(r bp.Reader, out io.Writer) error {
	// SBBT needs the totals up front. BT9 headers carry them; otherwise
	// the trace would need buffering, which info-size traces never do.
	s, ok := r.(bp.Sizer)
	if !ok || s.TotalBranches() == 0 {
		return fmt.Errorf("input does not declare totals; cannot write an SBBT header")
	}
	w, err := sbbt.NewWriter(out, s.TotalInstructions(), s.TotalBranches())
	if err != nil {
		return err
	}
	if err := pump(r, w.Write); err != nil {
		return err
	}
	return w.Close()
}

func convertToBT9(r bp.Reader, out io.Writer) error {
	w := bt9.NewWriter(out)
	if err := pump(r, w.Write); err != nil {
		return err
	}
	return w.Close()
}

func pump(r bp.Reader, write func(bp.Event) error) error {
	for {
		ev, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := write(ev); err != nil {
			return err
		}
	}
}
