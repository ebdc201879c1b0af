package compress

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"

	"mbplib/internal/faults"
)

// mlzsTestPayload builds a compressible-but-not-trivial byte stream: runs of
// repeated phrases interleaved with pseudo-random bytes, the texture of a
// branch trace.
func mlzsTestPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n)
	phrase := []byte("branch trace packets repeat at fixed offsets ")
	for len(out) < n {
		if rng.Intn(3) == 0 {
			var noise [64]byte
			rng.Read(noise[:])
			out = append(out, noise[:]...)
		} else {
			out = append(out, phrase...)
		}
	}
	return out[:n]
}

// mlzsCompress writes data through an MLZS writer and returns the container.
func mlzsCompress(t *testing.T, data []byte, opts MLZSOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewMLZSWriter(&buf, opts)
	if _, err := w.Write(data); err != nil {
		t.Fatalf("mlzs write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("mlzs close: %v", err)
	}
	return buf.Bytes()
}

// mlzsDecompress streams a container back through the sequential reader.
func mlzsDecompress(t *testing.T, container []byte) []byte {
	t.Helper()
	r, err := NewMLZSReader(bytes.NewReader(container))
	if err != nil {
		t.Fatalf("mlzs open: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("mlzs read: %v", err)
	}
	return got
}

func TestMLZSRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 100, 4096, 1 << 16, 1<<18 + 137}
	chunkSizes := []int{512, 4096, 1 << 16}
	for _, n := range sizes {
		for _, cs := range chunkSizes {
			for _, cw := range []int{1, 3} {
				data := mlzsTestPayload(n, int64(n)^int64(cs))
				container := mlzsCompress(t, data, MLZSOptions{ChunkSize: cs, Workers: cw})
				if got := mlzsDecompress(t, container); !bytes.Equal(got, data) {
					t.Fatalf("n=%d chunk=%d cw=%d: stream round-trip mismatch (%d bytes out)", n, cs, cw, len(got))
				}
			}
		}
	}
}

// TestMLZSDeterministicAcrossCompressWorkers pins the pgzip-style contract:
// the container bytes are identical at any compression worker count.
func TestMLZSDeterministicAcrossCompressWorkers(t *testing.T) {
	data := mlzsTestPayload(1<<18+77, 42)
	opts := MLZSOptions{ChunkSize: 8192, Level: LevelBest}
	want := mlzsCompress(t, data, opts)
	for _, cw := range []int{2, 4, 7} {
		o := opts
		o.Workers = cw
		if got := mlzsCompress(t, data, o); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: container differs from sequential (%d vs %d bytes)", cw, len(got), len(want))
		}
	}
}

func TestMLZSIndexMatchesScan(t *testing.T) {
	data := mlzsTestPayload(1<<17+300, 7)
	container := mlzsCompress(t, data, MLZSOptions{ChunkSize: 4096})
	ix, err := ReadMLZSIndex(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatalf("ReadMLZSIndex: %v", err)
	}
	scan, err := ScanMLZSIndex(bytes.NewReader(container))
	if err != nil {
		t.Fatalf("ScanMLZSIndex: %v", err)
	}
	if len(ix.Chunks) != len(scan.Chunks) {
		t.Fatalf("index has %d chunks, scan %d", len(ix.Chunks), len(scan.Chunks))
	}
	for i := range ix.Chunks {
		if ix.Chunks[i] != scan.Chunks[i] {
			t.Fatalf("chunk %d: index %+v, scan %+v", i, ix.Chunks[i], scan.Chunks[i])
		}
	}
	if ix.RawSize != int64(len(data)) || scan.RawSize != int64(len(data)) {
		t.Fatalf("raw size: index %d, scan %d, want %d", ix.RawSize, scan.RawSize, len(data))
	}
}

// TestMLZSAlignment checks the packet-alignment contract: with
// align=16/off=24, the header records it and every chunk boundary is at a
// raw offset ≡ 24 (mod 16).
func TestMLZSAlignment(t *testing.T) {
	data := mlzsTestPayload(24+16*5000+8, 99) // header + packets + a partial tail
	container := mlzsCompress(t, data, MLZSOptions{ChunkSize: 1 << 12, Align: 16, AlignOffset: 24})
	ix, err := ReadMLZSIndex(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatalf("ReadMLZSIndex: %v", err)
	}
	if ix.Align != 16 || ix.AlignOffset != 24 {
		t.Fatalf("index does not report alignment: %+v", ix)
	}
	for i, ci := range ix.Chunks {
		if i == 0 {
			if ci.RawOff != 0 {
				t.Fatalf("chunk 0 starts at raw offset %d", ci.RawOff)
			}
			continue
		}
		if (ci.RawOff-24)%16 != 0 {
			t.Fatalf("chunk %d starts at unaligned raw offset %d", i, ci.RawOff)
		}
	}
	if got := mlzsDecompress(t, container); !bytes.Equal(got, data) {
		t.Fatal("aligned container round-trip mismatch")
	}
}

func TestMLZSEmptyStream(t *testing.T) {
	container := mlzsCompress(t, nil, MLZSOptions{})
	if got := mlzsDecompress(t, container); len(got) != 0 {
		t.Fatalf("empty stream decoded to %d bytes", len(got))
	}
	ix, err := ReadMLZSIndex(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatalf("ReadMLZSIndex on empty container: %v", err)
	}
	if ix.NumChunks() != 0 || ix.RawSize != 0 {
		t.Fatalf("empty container index: %+v", ix)
	}
}

// TestMLZSThroughCompressAPI proves the container flows through the generic
// entry points old callers use: Detect, FormatForPath, NewReader, NewWriter.
func TestMLZSThroughCompressAPI(t *testing.T) {
	if got := FormatForPath("trace.sbbt.mlzs"); got != FormatMLZS {
		t.Fatalf("FormatForPath(.mlzs) = %v", got)
	}
	if got := FormatForPath("trace.sbbt.mlz"); got != FormatMLZ {
		t.Fatalf("FormatForPath(.mlz) = %v", got)
	}
	data := mlzsTestPayload(1<<15, 5)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, FormatMLZS, LevelFast)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := Detect(buf.Bytes()[:4]); got != FormatMLZS {
		t.Fatalf("Detect = %v", got)
	}
	// Old MLZ traces must read unchanged through the same entry point.
	var legacy bytes.Buffer
	lw := NewMLZWriter(&legacy, LevelFast)
	if _, err := lw.Write(data); err != nil {
		t.Fatalf("mlz write: %v", err)
	}
	if err := lw.Close(); err != nil {
		t.Fatalf("mlz close: %v", err)
	}
	for _, src := range [][]byte{buf.Bytes(), legacy.Bytes()} {
		r, err := NewReader(bytes.NewReader(src))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("NewReader round-trip mismatch")
		}
	}
}

// TestMLZSIndexFallback damages the footer and trailer: ReadMLZSIndex must
// return a typed error while the sequential paths (scan and stream) still
// deliver the correct bytes.
func TestMLZSIndexFallback(t *testing.T) {
	data := mlzsTestPayload(1<<14, 31)
	pristine := mlzsCompress(t, data, MLZSOptions{ChunkSize: 1024})
	cases := map[string]func(b []byte) []byte{
		"footer magic":    func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"trailer crc":     func(b []byte) []byte { b[len(b)-20] ^= 0x01; return b },
		"footer truncate": func(b []byte) []byte { return b[:len(b)-5] },
	}
	for name, f := range cases {
		b := f(append([]byte(nil), pristine...))
		if _, err := ReadMLZSIndex(bytes.NewReader(b), int64(len(b))); err == nil {
			t.Errorf("%s: damaged index read without error", name)
		} else if faults.Class(err) == "other" {
			t.Errorf("%s: untyped index error %v", name, err)
		}
		// The data frames are intact, so streaming and scanning still work.
		r, err := NewMLZSReader(bytes.NewReader(b))
		if err != nil {
			t.Errorf("%s: stream open: %v", name, err)
			continue
		}
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: stream fallback mismatch (err %v)", name, err)
		}
		if ix, err := ScanMLZSIndex(bytes.NewReader(b)); err != nil {
			t.Errorf("%s: scan fallback: %v", name, err)
		} else if ix.RawSize != int64(len(data)) {
			t.Errorf("%s: scan raw size %d, want %d", name, ix.RawSize, len(data))
		}
	}
}

// TestMLZSCorruptChunkIsTyped damages one chunk of a container in
// targeted ways: the streaming reader delivers exactly the bytes of the
// chunks before it, then a typed error.
func TestMLZSCorruptChunkIsTyped(t *testing.T) {
	data := mlzsTestPayload(1<<13, 17)
	pristine := mlzsCompress(t, data, MLZSOptions{ChunkSize: 512})
	ix, err := ReadMLZSIndex(bytes.NewReader(pristine), int64(len(pristine)))
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	if ix.NumChunks() < 4 {
		t.Fatalf("want >= 4 chunks, got %d", ix.NumChunks())
	}
	last := ix.NumChunks() - 1
	for _, c := range []struct {
		name  string
		chunk int // the damaged chunk
		f     func(b []byte) []byte
	}{
		{"flip payload byte in chunk 1", 1, func(b []byte) []byte { b[ix.Chunks[1].Off+15] ^= 0x40; return b }},
		{"flip payload byte in chunk 2", 2, func(b []byte) []byte { b[ix.Chunks[2].Off+20] ^= 0x01; return b }},
		{"truncate mid chunk 3", 3, func(b []byte) []byte { return b[:ix.Chunks[3].Off+3] }},
		{"bad frame tag", 1, func(b []byte) []byte { b[ix.Chunks[1].Off] = 0x7f; return b }},
		// The stream ends where a frame should start.
		{"truncate before end tag", last, func(b []byte) []byte { return b[:ix.Chunks[last].Off] }},
	} {
		b := c.f(append([]byte(nil), pristine...))
		r, err := NewMLZSReader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: stream open: %v", c.name, err)
		}
		got, err := io.ReadAll(r)
		if want := data[:ix.Chunks[c.chunk].RawOff]; !bytes.Equal(got, want) {
			t.Errorf("%s: stream delivered %d bytes before the fault, want the %d of the chunks before it", c.name, len(got), len(want))
		}
		if err == nil {
			t.Errorf("%s: damaged container read without error", c.name)
		} else if !errors.Is(err, faults.ErrCorrupt) && !errors.Is(err, faults.ErrTruncated) && !errors.Is(err, faults.ErrLimit) {
			t.Errorf("%s: error not typed: %v", c.name, err)
		}
	}
}

// FuzzMLZSRoundTrip feeds arbitrary payloads through the chunked container
// at fuzzed chunk sizes and compression worker counts, requires exact
// reconstruction from the streaming reader and an index that accounts for
// every byte, and feeds the raw fuzz payload to the decoder and the index
// readers, which must reject or decode without panicking.
func FuzzMLZSRoundTrip(f *testing.F) {
	f.Add([]byte(""), uint16(1), true)
	f.Add([]byte("abcabcabcabcabcabc"), uint16(4), false)
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 0x02, 0x03}, 4096), uint16(64), true)
	f.Add([]byte("MLZS\x01\x80\x08\x00\x00"), uint16(9), false) // magic + header-ish
	f.Add(bytes.Repeat([]byte("branch trace packets repeat at fixed offsets "), 64), uint16(300), true)

	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint16, best bool) {
		level := LevelFast
		if best {
			level = LevelBest
		}
		opts := MLZSOptions{ChunkSize: int(chunkSize), Level: level, Workers: 1 + int(chunkSize)%3}
		var comp bytes.Buffer
		w := NewMLZSWriter(&comp, opts)
		if _, err := w.Write(data); err != nil {
			t.Fatalf("compress write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("compress close: %v", err)
		}
		r, err := NewMLZSReader(bytes.NewReader(comp.Bytes()))
		if err != nil {
			t.Fatalf("opening container: %v", err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("stream round-trip mismatch: %d bytes in, %d bytes out", len(data), len(got))
		}
		ix, err := ReadMLZSIndex(bytes.NewReader(comp.Bytes()), int64(comp.Len()))
		if err != nil {
			t.Fatalf("index of pristine container: %v", err)
		}
		if ix.RawSize != int64(len(data)) {
			t.Fatalf("index raw size %d, want %d", ix.RawSize, len(data))
		}

		// The decoder must survive the raw fuzz payload itself: a clean
		// error or a successful decode, never a panic.
		if r, err := NewMLZSReader(bytes.NewReader(data)); err == nil {
			io.Copy(io.Discard, r) //nolint:errcheck // any outcome but a panic is acceptable here
		}
		ReadMLZSIndex(bytes.NewReader(data), int64(len(data))) //nolint:errcheck // same: must not panic
		ScanMLZSIndex(bytes.NewReader(data))                   //nolint:errcheck // same: must not panic
	})
}

// FuzzMLZSIndexTrailer mutates one byte of a pristine container (weighted
// toward the trailer and footer) and requires that the index either fails
// with a typed error or — if the mutation missed everything CRC-protected —
// still describes the pristine chunk table, and that the streaming reader
// delivers a prefix of the original bytes before any typed error. Wrong
// data is never acceptable; a damaged trailer must push readers to the
// sequential-scan fallback instead.
func FuzzMLZSIndexTrailer(f *testing.F) {
	base := mlzsTestPayloadF(1<<12, 1)
	var buf bytes.Buffer
	w := NewMLZSWriter(&buf, MLZSOptions{ChunkSize: 256})
	w.Write(base) //nolint:errcheck // bytes.Buffer cannot fail
	w.Close()     //nolint:errcheck // bytes.Buffer cannot fail
	pristine := buf.Bytes()
	want, err := ReadMLZSIndex(bytes.NewReader(pristine), int64(len(pristine)))
	if err != nil {
		f.Fatalf("index of pristine container: %v", err)
	}
	f.Add(uint32(len(pristine)-1), byte(0xff))
	f.Add(uint32(len(pristine)-10), byte(0x01))
	f.Add(uint32(len(pristine)-20), byte(0x80))
	f.Add(uint32(0), byte(0x20))

	f.Fuzz(func(t *testing.T, pos uint32, xor byte) {
		if xor == 0 {
			return
		}
		b := append([]byte(nil), pristine...)
		// Bias positions into the last quarter (trailer + footer) half the
		// time, so the index machinery gets the attention.
		p := int(pos) % len(b)
		if pos%2 == 0 {
			p = len(b) - 1 - int(pos)%(len(b)/4)
		}
		b[p] ^= xor
		ix, err := ReadMLZSIndex(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			if faults.Class(err) == "other" {
				t.Fatalf("mutated index: untyped error %v", err)
			}
			// Fallback path: the scan must still be available for pristine
			// frames; if the mutation hit a frame it may fail typed too.
			if _, serr := ScanMLZSIndex(bytes.NewReader(b)); serr != nil && faults.Class(serr) == "other" {
				t.Fatalf("scan fallback: untyped error %v", serr)
			}
		} else if !slices.Equal(ix.Chunks, want.Chunks) || ix.RawSize != want.RawSize {
			t.Fatalf("mutated index parsed to a different chunk table")
		}
		r, err := NewMLZSReader(bytes.NewReader(b))
		if err != nil {
			if faults.Class(err) == "other" {
				t.Fatalf("stream open: untyped error %v", err)
			}
			return
		}
		got, err := io.ReadAll(r)
		if !bytes.Equal(got, base[:min(len(got), len(base))]) || (err == nil && len(got) != len(base)) {
			t.Fatalf("mutated container streamed to wrong bytes (%d of %d, err %v)", len(got), len(base), err)
		}
		if err != nil && faults.Class(err) == "other" {
			t.Fatalf("stream: untyped error %v", err)
		}
	})
}

// mlzsTestPayloadF is mlzsTestPayload without *testing.T, for fuzz seeds.
func mlzsTestPayloadF(n int, seed int64) []byte {
	return mlzsTestPayload(n, seed)
}
