package compress

import (
	"bytes"
	"io"
	"math/rand/v2"
	"testing"

	"mbplib/internal/faults"
)

// FuzzMLZRoundTrip feeds arbitrary payloads through the MLZ compressor at
// both levels and requires exact reconstruction, and feeds arbitrary bytes
// to the decoder, which must reject or decode them without panicking —
// the dynamic counterpart to mbpvet's static bit-width checks on the
// codec paths.
func FuzzMLZRoundTrip(f *testing.F) {
	f.Add([]byte(""), true)
	f.Add([]byte("abcabcabcabcabcabc"), false)
	f.Add(bytes.Repeat([]byte{0x00, 0x01, 0x02, 0x03}, 4096), true)
	f.Add([]byte("MLZ1\x00"), false) // magic followed by a bad frame
	f.Add(bytes.Repeat([]byte("branch trace packets repeat at fixed offsets "), 64), true)

	f.Fuzz(func(t *testing.T, data []byte, best bool) {
		level := LevelFast
		if best {
			level = LevelBest
		}

		var comp bytes.Buffer
		w := NewMLZWriter(&comp, level)
		if _, err := w.Write(data); err != nil {
			t.Fatalf("compress write: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("compress close: %v", err)
		}
		r, err := NewReader(bytes.NewReader(comp.Bytes()))
		if err != nil {
			t.Fatalf("opening compressed stream: %v", err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("decompress: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch: %d bytes in, %d bytes out", len(data), len(got))
		}

		// The decoder must survive the raw fuzz payload itself: either a
		// clean error or a successful decode, never a panic.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			io.Copy(io.Discard, r) //nolint:errcheck // any outcome but a panic is acceptable here
		}
	})
}

// FuzzMLZDecode feeds arbitrary bytes through NewReader, seeded with valid
// .mlz and .mlzs containers whose blocks are all of one kind — stored,
// plain LZ or Huffman-coded — and copies with one bit flipped. The
// round-trip targets decode only what the encoder wrote; these seeds start
// the fuzzer on hostile stored blocks, token streams, Huffman length
// tables (MLZ blocks carry no checksum), frames, chunk headers and
// trailers, so the one block decoder is fuzzed through both framings and
// all three kinds. Every input must decode or fail with a typed faults
// error, never panic. Gzip streams are the standard library's decoder and
// are left out.
func FuzzMLZDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(3, 2))
	bytesOf := func(n int, next func() byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = next()
		}
		return b
	}
	// Skewed bytes, so every block and chunk is Huffman-coded.
	skewed := bytesOf(3<<10, func() byte { return byte(rng.ExpFloat64() * 8) })
	// Random bytes: no coding shrinks them, so every block is stored.
	random := bytesOf(3<<10, func() byte { return byte(rng.Uint32()) })
	// A random phrase repeated: its short token stream cannot pay for a
	// Huffman table, so every block is plain LZ.
	plainLZ := bytes.Repeat(bytesOf(256, func() byte { return byte(rng.Uint32()) }), 16)
	var containers [][]byte
	for _, in := range []struct {
		kind byte
		data []byte
	}{{blockHuffman, skewed}, {blockStored, random}, {blockLZ, plainLZ}} {
		for _, level := range []Level{LevelFast, LevelBest} {
			var mlz, mlzs bytes.Buffer
			for _, w := range []io.WriteCloser{NewMLZWriter(&mlz, level), NewMLZSWriter(&mlzs, MLZSOptions{ChunkSize: 1 << 11, Level: level})} {
				if _, err := w.Write(in.data); err != nil {
					f.Fatal(err)
				}
				if err := w.Close(); err != nil {
					f.Fatal(err)
				}
			}
			for _, c := range [][]byte{mlz.Bytes(), mlzs.Bytes()} {
				kinds := blockKinds(f, c)
				if len(kinds) == 0 || bytes.Count(kinds, []byte{in.kind}) != len(kinds) {
					f.Fatalf("seed of kind %d holds blocks of kinds %v", in.kind, kinds)
				}
				containers = append(containers, c)
			}
		}
	}
	for _, c := range containers {
		f.Add(c)
		// Flips across the container: block and chunk headers, the
		// 128-byte Huffman length tables that follow them, token
		// streams, stored bytes and the MLZS trailer.
		for i := 1; i < 16; i++ {
			off := 4 + (len(c)-5)*i/16
			flipped := bytes.Clone(c)
			flipped[off] ^= 1 << (i % 8)
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if Detect(data) == FormatGzip {
			t.Skip("gzip streams are the standard library's decoder")
		}
		r, err := NewReader(bytes.NewReader(data))
		if err == nil {
			_, err = io.Copy(io.Discard, r)
		}
		if err != nil && faults.Class(err) == "other" {
			t.Fatalf("untyped error: %v", err)
		}
	})
}

// blockKinds decodes an MLZ or MLZS container and lists the kind of each
// of its blocks.
func blockKinds(tb testing.TB, c []byte) []byte {
	tb.Helper()
	r, err := NewReader(bytes.NewReader(c))
	if err != nil {
		tb.Fatal(err)
	}
	br := r.(*blockReader)
	var kinds []byte
	next := br.next
	br.next = func(r byteSource, blocks int) (blockHeader, error) {
		h, err := next(r, blocks)
		if err == nil {
			kinds = append(kinds, h.kind)
		}
		return h, err
	}
	if _, err := io.ReadAll(br); err != nil {
		tb.Fatal(err)
	}
	return kinds
}
