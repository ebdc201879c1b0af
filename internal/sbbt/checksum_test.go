package sbbt

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
)

func writeChecksummedTrace(t *testing.T, evs []bp.Event) []byte {
	t.Helper()
	var instrs uint64
	for _, ev := range evs {
		instrs += ev.InstrsSinceLastBranch + 1
	}
	var buf bytes.Buffer
	w, err := NewChecksumWriter(&buf, instrs, uint64(len(evs)))
	if err != nil {
		t.Fatalf("NewChecksumWriter: %v", err)
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestChecksumRoundTrip spans several checksum chunks (including a final
// partial one) and verifies the event stream is unchanged by the extension.
func TestChecksumRoundTrip(t *testing.T) {
	evs := sampleEvents(2*ChecksumChunkPackets + 123)
	data := writeChecksummedTrace(t, evs)

	chunks := (len(evs) + ChecksumChunkPackets - 1) / ChecksumChunkPackets
	want := HeaderSize + ChecksumSize + len(evs)*PacketSize + chunks*ChecksumSize
	if len(data) != want {
		t.Errorf("checksummed trace size = %d, want %d", len(data), want)
	}

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.Header().Checksummed {
		t.Errorf("Header().Checksummed = false")
	}
	if r.TotalBranches() != uint64(len(evs)) {
		t.Errorf("TotalBranches = %d, want %d", r.TotalBranches(), len(evs))
	}
	for i, want := range evs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("after last event, Read err = %v, want io.EOF", err)
	}
}

func TestChecksumEmptyTrace(t *testing.T) {
	data := writeChecksummedTrace(t, nil)
	if want := HeaderSize + ChecksumSize; len(data) != want {
		t.Errorf("empty checksummed trace size = %d, want %d", len(data), want)
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read on empty trace err = %v, want io.EOF", err)
	}
}

// TestChecksumDetectsBitFlips flips one bit in every region of a
// checksummed trace — header, header checksum, packets, chunk trailers —
// and requires NewReader or Read to fail with a typed faults error.
func TestChecksumDetectsBitFlips(t *testing.T) {
	evs := sampleEvents(ChecksumChunkPackets + 7) // two chunks
	data := writeChecksummedTrace(t, evs)
	for off := 0; off < len(data); off++ {
		corrupted := append([]byte(nil), data...)
		corrupted[off] ^= 1 << uint(off%8)
		err := readAll(corrupted)
		if err == nil {
			t.Fatalf("offset %d: bit flip not detected", off)
		}
		if faults.Class(err) == "other" {
			t.Fatalf("offset %d: untyped error %v", off, err)
		}
	}
}

func readAll(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Read(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// TestChecksumFreeTracesStillRead pins backward compatibility: a plain
// trace has no checksum flag and reads exactly as before.
func TestChecksumFreeTracesStillRead(t *testing.T) {
	evs := sampleEvents(50)
	data := writeTrace(t, evs)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Header().Checksummed {
		t.Errorf("plain trace parsed as checksummed")
	}
	for i := range evs {
		if _, err := r.Read(); err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read err = %v, want io.EOF", err)
	}
}

func TestNewReaderRejectsHostileHeaders(t *testing.T) {
	// Branch count above the format limit: ErrLimit, before any allocation.
	h := NewHeader(1<<60, 1<<50)
	if _, err := NewReader(bytes.NewReader(h.AppendTo(nil))); !errors.Is(err, faults.ErrLimit) {
		t.Errorf("oversized branch count: err = %v, want ErrLimit", err)
	}
	// More branches than instructions: internally inconsistent.
	h = NewHeader(10, 20)
	if _, err := NewReader(bytes.NewReader(h.AppendTo(nil))); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("branches > instructions: err = %v, want ErrCorrupt", err)
	}
}

// TestNewReaderRejectsImplausibleHeaders: a header one branch past the
// format limit, or with more branches than instructions, is refused before
// any packet is read.
func TestNewReaderRejectsImplausibleHeaders(t *testing.T) {
	for _, tc := range []struct {
		name             string
		instrs, branches uint64
		want             error
	}{
		{"over-limit", MaxTraceBranches + 2, MaxTraceBranches + 1, faults.ErrLimit},
		{"branches-over-instructions", 5, 10, faults.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := NewHeader(tc.instrs, tc.branches).AppendTo(nil)
			if _, err := NewReader(bytes.NewReader(raw)); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestNewChecksumWriterRejectsOversizedCount(t *testing.T) {
	if _, err := NewWriter(io.Discard, 1<<60, MaxTraceBranches+1); !errors.Is(err, faults.ErrLimit) {
		t.Errorf("NewWriter over limit: err = %v, want ErrLimit", err)
	}
}

// TestChecksumReaderUnderShortReads verifies the chunk-verification state
// machine is insensitive to read fragmentation.
func TestChecksumReaderUnderShortReads(t *testing.T) {
	evs := sampleEvents(ChecksumChunkPackets + 50)
	data := writeChecksummedTrace(t, evs)
	r, err := NewReader(faults.ShortReads(bytes.NewReader(data), 7))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for i, want := range evs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d mismatch", i)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read err = %v, want io.EOF", err)
	}
}
