package compress

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
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

// mlzsChunkWalk decodes chunks 0..n-1 of ix in order through one
// MLZSChunkDecoder over b — the random-access path read front to back —
// returning the bytes delivered before the first error.
func mlzsChunkWalk(b []byte, ix *MLZSIndex) ([]byte, error) {
	dec := NewMLZSChunkDecoder(bytes.NewReader(b), ix)
	out := []byte{}
	for i := range ix.Chunks {
		chunk, err := dec.Decode(i)
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// mlzsWalkContainer indexes a pristine container and chunk-walks it.
func mlzsWalkContainer(t *testing.T, container []byte) []byte {
	t.Helper()
	ix, err := ReadMLZSIndex(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatalf("mlzs index: %v", err)
	}
	got, err := mlzsChunkWalk(container, ix)
	if err != nil {
		t.Fatalf("mlzs chunk walk: %v", err)
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
				if got := mlzsWalkContainer(t, container); !bytes.Equal(got, data) {
					t.Fatalf("n=%d chunk=%d cw=%d: chunk-walk round-trip mismatch (%d bytes out)", n, cs, cw, len(got))
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

func TestMLZSChunkDecoder(t *testing.T) {
	data := mlzsTestPayload(1<<16+513, 11)
	container := mlzsCompress(t, data, MLZSOptions{ChunkSize: 2048, Level: LevelBest})
	ra := bytes.NewReader(container)
	ix, err := ReadMLZSIndex(ra, int64(len(container)))
	if err != nil {
		t.Fatalf("ReadMLZSIndex: %v", err)
	}
	dec := NewMLZSChunkDecoder(ra, ix)
	// Decode out of order to prove chunks are independent.
	order := rand.New(rand.NewSource(3)).Perm(ix.NumChunks())
	for _, i := range order {
		ci := ix.Chunks[i]
		got, err := dec.Decode(i)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		want := data[ci.RawOff : ci.RawOff+ci.RawLen]
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: decoded %d bytes, mismatch with raw [%d:%d]", i, len(got), ci.RawOff, ci.RawOff+ci.RawLen)
		}
	}
	if _, err := dec.Decode(ix.NumChunks()); err == nil {
		t.Fatal("out-of-range chunk decoded without error")
	}
}

// TestMLZSAlignment checks the packet-alignment contract the trace cache
// relies on: with align=16/off=24, every chunk boundary is at a raw offset
// ≡ 24 (mod 16).
func TestMLZSAlignment(t *testing.T) {
	data := mlzsTestPayload(24+16*5000+8, 99) // header + packets + a partial tail
	container := mlzsCompress(t, data, MLZSOptions{ChunkSize: 1 << 12, Align: 16, AlignOffset: 24})
	ix, err := ReadMLZSIndex(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatalf("ReadMLZSIndex: %v", err)
	}
	if !ix.Aligned(16, 24) {
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

// TestMLZSErrorEquivalence corrupts a container in targeted ways and
// requires the two decoders — the streaming reader, and a chunk walk through
// MLZSChunkDecoder over the pristine index — to deliver the same bytes
// before the fault and the same error text.
func TestMLZSErrorEquivalence(t *testing.T) {
	data := mlzsTestPayload(1<<15, 21)
	pristine := mlzsCompress(t, data, MLZSOptions{ChunkSize: 1024})
	ix, err := ReadMLZSIndex(bytes.NewReader(pristine), int64(len(pristine)))
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	if ix.NumChunks() < 4 {
		t.Fatalf("want >= 4 chunks, got %d", ix.NumChunks())
	}
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), pristine...))
		r, err := NewMLZSReader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: stream open: %v", name, err)
		}
		seq, seqErr := io.ReadAll(r)
		walk, walkErr := mlzsChunkWalk(b, ix)
		if !bytes.Equal(walk, seq) || fmt.Sprint(walkErr) != fmt.Sprint(seqErr) {
			t.Errorf("%s: chunk walk got (%d bytes, %v), stream (%d bytes, %v)", name, len(walk), walkErr, len(seq), seqErr)
		}
		if !bytes.Equal(seq, data[:len(seq)]) {
			t.Errorf("%s: stream delivered wrong bytes before the fault", name)
		}
		if seqErr == nil {
			t.Errorf("%s: damaged container read without error", name)
		} else if faults.Class(seqErr) == "other" {
			t.Errorf("%s: untyped error %v", name, seqErr)
		}
	}
	mutate("flip payload byte in chunk 2", func(b []byte) []byte {
		b[ix.Chunks[2].Off+20] ^= 0x01
		return b
	})
	mutate("truncate mid chunk 3", func(b []byte) []byte {
		return b[:ix.Chunks[3].Off+3]
	})
	mutate("bad frame tag", func(b []byte) []byte {
		b[ix.Chunks[1].Off] = 0x7f
		return b
	})
	mutate("truncate before end tag", func(b []byte) []byte {
		last := ix.Chunks[len(ix.Chunks)-1]
		return b[:last.Off] // stream ends where a frame should start
	})
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

func TestMLZSCorruptChunkIsTyped(t *testing.T) {
	data := mlzsTestPayload(1<<13, 17)
	container := mlzsCompress(t, data, MLZSOptions{ChunkSize: 512})
	ix, err := ReadMLZSIndex(bytes.NewReader(container), int64(len(container)))
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	b := append([]byte(nil), container...)
	b[ix.Chunks[1].Off+15] ^= 0x40
	ra := bytes.NewReader(b)
	dec := NewMLZSChunkDecoder(ra, ix)
	if got, err := dec.Decode(0); err != nil || !bytes.Equal(got, data[:ix.Chunks[0].RawLen]) {
		t.Fatalf("undamaged chunk 0 failed: %v", err)
	}
	if _, err := dec.Decode(1); err == nil {
		t.Fatal("corrupt chunk decoded without error")
	} else if !errors.Is(err, faults.ErrCorrupt) && !errors.Is(err, faults.ErrTruncated) && !errors.Is(err, faults.ErrLimit) {
		t.Fatalf("corrupt chunk error not typed: %v", err)
	}
	ci := ix.Chunks[2]
	if got, err := dec.Decode(2); err != nil || !bytes.Equal(got, data[ci.RawOff:ci.RawOff+ci.RawLen]) {
		t.Fatalf("undamaged chunk 2 failed after corrupt neighbour: %v", err)
	}
}

// FuzzMLZSRoundTrip feeds arbitrary payloads through the chunked container
// at fuzzed chunk sizes and compression worker counts, requires exact
// reconstruction from both the streaming reader and a chunk walk over the
// index, and feeds the raw fuzz payload to the decoders and index readers,
// which must reject or decode without panicking.
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
		if got, err := mlzsChunkWalk(comp.Bytes(), ix); err != nil {
			t.Fatalf("chunk walk: %v", err)
		} else if !bytes.Equal(got, data) {
			t.Fatalf("chunk-walk round-trip mismatch: %d bytes in, %d bytes out", len(data), len(got))
		}

		// The decoders must survive the raw fuzz payload itself: a clean
		// error or a successful decode, never a panic.
		if r, err := NewMLZSReader(bytes.NewReader(data)); err == nil {
			io.Copy(io.Discard, r) //nolint:errcheck // any outcome but a panic is acceptable here
		}
		if ix, err := ReadMLZSIndex(bytes.NewReader(data), int64(len(data))); err == nil {
			mlzsChunkWalk(data, ix) //nolint:errcheck // same: must not panic
		}
		ScanMLZSIndex(bytes.NewReader(data)) //nolint:errcheck // same: must not panic
	})
}

// FuzzMLZSIndexTrailer mutates one byte of a pristine container (weighted
// toward the trailer and footer) and requires that the index either fails
// with a typed error or — if the mutation missed everything CRC-protected —
// still describes chunks that decode to the original bytes. Wrong events
// are never acceptable; a damaged trailer must push readers to the
// sequential-scan fallback instead.
func FuzzMLZSIndexTrailer(f *testing.F) {
	base := mlzsTestPayloadF(1<<12, 1)
	var buf bytes.Buffer
	w := NewMLZSWriter(&buf, MLZSOptions{ChunkSize: 256})
	w.Write(base) //nolint:errcheck // bytes.Buffer cannot fail
	w.Close()     //nolint:errcheck // bytes.Buffer cannot fail
	pristine := buf.Bytes()
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
			return
		}
		// The index parsed: every chunk it describes must decode to exactly
		// the original bytes or fail typed — never wrong data.
		dec := NewMLZSChunkDecoder(bytes.NewReader(b), ix)
		for i, ci := range ix.Chunks {
			got, derr := dec.Decode(i)
			if derr != nil {
				if faults.Class(derr) == "other" {
					t.Fatalf("chunk %d: untyped error %v", i, derr)
				}
				continue
			}
			if ci.RawOff+ci.RawLen > int64(len(base)) {
				t.Fatalf("chunk %d: index maps past raw stream", i)
			}
			if !bytes.Equal(got, base[ci.RawOff:ci.RawOff+ci.RawLen]) {
				t.Fatalf("chunk %d: mutated container decoded to wrong bytes", i)
			}
		}
	})
}

// mlzsTestPayloadF is mlzsTestPayload without *testing.T, for fuzz seeds.
func mlzsTestPayloadF(n int, seed int64) []byte {
	return mlzsTestPayload(n, seed)
}
