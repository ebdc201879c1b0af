package chunked

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/faults"
	"mbplib/internal/sbbt"
)

// writeAligned stores raw as a packet-aligned MLZS container, the layout
// Open accepts, and returns its path.
func writeAligned(t *testing.T, raw []byte, chunkSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sbbt.mlzs")
	f, err := compress.CreateMLZSFile(path, compress.MLZSOptions{
		ChunkSize: chunkSize, Level: compress.LevelFast,
		Align: sbbt.PacketSize, AlignOffset: sbbt.HeaderSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// encode writes n conditional branches as a plain SBBT trace.
func encode(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := sbbt.NewWriter(&buf, uint64(2*n), uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ev := bp.Event{
			Branch:                bp.Branch{IP: 0x400000 + uint64(i)*4, Target: 0x500000, Opcode: bp.OpCondJump, Taken: i%3 == 0},
			InstrsSinceLastBranch: 1,
		}
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenRejectsImplausibleHeaders(t *testing.T) {
	for _, tc := range []struct {
		name             string
		instrs, branches uint64
		want             error
	}{
		{"over-limit", sbbt.MaxTraceBranches + 2, sbbt.MaxTraceBranches + 1, faults.ErrLimit},
		{"branches-over-instructions", 5, 10, faults.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := sbbt.NewHeader(tc.instrs, tc.branches).AppendTo(nil)
			tr, err := Open(writeAligned(t, raw, 4096))
			if err == nil {
				tr.Close()
				t.Fatal("Open accepted the header")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestOpenRejectsShortChunkZero(t *testing.T) {
	raw := sbbt.NewHeader(0, 0).AppendTo(nil)[:sbbt.HeaderSize-4]
	tr, err := Open(writeAligned(t, raw, 4096))
	if err == nil {
		tr.Close()
		t.Fatal("Open accepted a chunk 0 shorter than the header")
	}
	if !strings.Contains(err.Error(), "smaller than the 24-byte header") {
		t.Errorf("err = %v, want the short chunk 0 rejected", err)
	}
}

// TestDecodeChunkEndsMidPacket: a final chunk cut inside a packet returns
// the events before the cut and the streaming reader's truncation error.
func TestDecodeChunkEndsMidPacket(t *testing.T) {
	full := encode(t, 300)
	raw := full[:len(full)-sbbt.PacketSize/2]

	var want []bp.Event
	r, err := sbbt.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var streamErr error
	for {
		ev, err := r.Read()
		if err != nil {
			streamErr = err
			break
		}
		want = append(want, ev)
	}
	if streamErr == io.EOF {
		t.Fatal("the streaming reader accepted the cut trace")
	}

	tr, err := Open(writeAligned(t, raw, 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.NumChunks() < 2 {
		t.Fatalf("want several chunks, got %d", tr.NumChunks())
	}
	var got []bp.Event
	last := tr.NumChunks() - 1
	for i := 0; i <= last; i++ {
		evs, err := tr.DecodeChunk(i)
		got = append(got, evs...)
		if i < last && err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if i == last {
			if !errors.Is(err, bp.ErrTruncated) {
				t.Fatalf("final chunk err = %v, want bp.ErrTruncated", err)
			}
			if err.Error() != streamErr.Error() {
				t.Errorf("final chunk err %q, streaming reader says %q", err, streamErr)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, streaming read %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d differs from the streaming reader", i)
		}
	}
}

// TestAppendChunkReusesBuffer: decoding every chunk into one reused buffer
// yields DecodeChunk's events and errors, the final chunk cut mid-packet
// included, and appends to what the buffer already holds.
func TestAppendChunkReusesBuffer(t *testing.T) {
	full := encode(t, 300)
	tr, err := Open(writeAligned(t, full[:len(full)-sbbt.PacketSize/2], 1024))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var buf []bp.Event
	for i := 0; i < tr.NumChunks(); i++ {
		want, wantErr := tr.DecodeChunk(i)
		got, err := tr.AppendChunk(buf[:0], i)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("chunk %d: AppendChunk gave %d events and %v, DecodeChunk %d and %v", i, len(got), err, len(want), wantErr)
		}
		if len(want) > 0 && cap(buf) >= len(want) && &got[0] != &buf[:1][0] {
			t.Errorf("chunk %d: decoded into a new array while the buffer had room", i)
		}
		buf = got
	}
	if last := tr.NumChunks() - 1; last < 2 {
		t.Fatalf("want several chunks, got %d", last+1)
	}
	head := []bp.Event{{InstrsSinceLastBranch: 7}}
	got, err := tr.AppendChunk(head, 1)
	want, _ := tr.DecodeChunk(1)
	if err != nil || !slices.Equal(got, append(head, want...)) {
		t.Errorf("AppendChunk onto one event: %d events and %v, want %d and nil", len(got), err, 1+len(want))
	}
}
