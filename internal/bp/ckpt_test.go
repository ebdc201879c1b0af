package bp

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"mbplib/internal/faults"
)

func TestCkptRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCkptWriter(&buf)
	cw.Header("demo", 3)
	cw.U64(0)
	cw.U64(1<<64 - 1)
	cw.I64(-5)
	cw.I64(1 << 62)
	cw.Int(-1)
	cw.Bool(true)
	cw.Bool(false)
	cw.Bytes([]byte{0xde, 0xad})
	cw.String("gshare:t=18")
	cw.U64s([]uint64{7, 0, 9})
	cw.U64s(nil)
	if err := cw.Err(); err != nil {
		t.Fatalf("write: %v", err)
	}

	cr := NewCkptReader(bytes.NewReader(buf.Bytes()))
	if v := cr.Header("demo"); v != 3 {
		t.Errorf("version = %d, want 3", v)
	}
	if got := cr.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := cr.U64(); got != 1<<64-1 {
		t.Errorf("U64 max = %d", got)
	}
	if got := cr.I64(); got != -5 {
		t.Errorf("I64 = %d", got)
	}
	if got := cr.I64(); got != 1<<62 {
		t.Errorf("I64 big = %d", got)
	}
	if got := cr.Int(); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if !cr.Bool() || cr.Bool() {
		t.Errorf("Bool round-trip failed")
	}
	if got := cr.Bytes(); !bytes.Equal(got, []byte{0xde, 0xad}) {
		t.Errorf("Bytes = %x", got)
	}
	if got := cr.String(); got != "gshare:t=18" {
		t.Errorf("String = %q", got)
	}
	if got := cr.U64s(); len(got) != 3 || got[0] != 7 || got[1] != 0 || got[2] != 9 {
		t.Errorf("U64s = %v", got)
	}
	if got := cr.U64s(); len(got) != 0 {
		t.Errorf("empty U64s = %v", got)
	}
	if err := cr.Err(); err != nil {
		t.Fatalf("read: %v", err)
	}
	// The stream must be fully consumed: embedded checkpoints depend on the
	// reader stopping exactly at the end of what the writer produced.
	if _, err := cr.rr.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("trailing bytes after decode (err=%v)", err)
	}
}

// A CkptReader over a plain (non-byte) reader must not buffer past the
// checkpoint's own bytes.
func TestCkptReaderLeavesTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCkptWriter(&buf)
	cw.U64(300)
	cw.Bytes([]byte("abc"))
	buf.WriteString("TRAILER")

	plain := struct{ io.Reader }{bytes.NewReader(buf.Bytes())}
	cr := NewCkptReader(plain)
	if got := cr.U64(); got != 300 {
		t.Fatalf("U64 = %d", got)
	}
	if got := cr.Bytes(); string(got) != "abc" {
		t.Fatalf("Bytes = %q", got)
	}
	rest, err := io.ReadAll(plain)
	if err != nil || string(rest) != "TRAILER" {
		t.Errorf("trailing read = %q, %v; want TRAILER", rest, err)
	}
}

func TestCkptHeaderRejectsMismatch(t *testing.T) {
	encode := func(name string, version uint64) []byte {
		var buf bytes.Buffer
		cw := NewCkptWriter(&buf)
		cw.Header(name, version)
		return buf.Bytes()
	}

	cr := NewCkptReader(bytes.NewReader(encode("tage", 1)))
	cr.Header("gshare")
	if err := cr.Err(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("wrong-name header: err = %v, want ErrCorrupt", err)
	}

	bad := encode("gshare", 1)
	copy(bad, "XXXX")
	cr = NewCkptReader(bytes.NewReader(bad))
	cr.Header("gshare")
	if err := cr.Err(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// Version flows back to the caller; the helper does not judge it.
	cr = NewCkptReader(bytes.NewReader(encode("gshare", 9)))
	if v := cr.Header("gshare"); v != 9 || cr.Err() != nil {
		t.Errorf("Header = %d, %v", v, cr.Err())
	}
}

func TestCkptReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCkptWriter(&buf)
	cw.Header("demo", 1)
	cw.U64s([]uint64{1, 2, 3, 4})
	full := buf.Bytes()

	// Every proper prefix must fail as truncated, never panic or succeed.
	for n := 0; n < len(full); n++ {
		cr := NewCkptReader(bytes.NewReader(full[:n]))
		cr.Header("demo")
		cr.U64s()
		if err := cr.Err(); !errors.Is(err, faults.ErrTruncated) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrTruncated", n, len(full), err)
		}
	}
}

func TestCkptReaderLimitsAllocations(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCkptWriter(&buf)
	cw.U64(1 << 40) // implausible length prefix
	cr := NewCkptReader(bytes.NewReader(buf.Bytes()))
	if got := cr.Bytes(); got != nil {
		t.Errorf("Bytes on hostile length returned %d bytes", len(got))
	}
	if err := cr.Err(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("hostile length: err = %v, want ErrCorrupt", err)
	}

	cr = NewCkptReader(bytes.NewReader(buf.Bytes()))
	if got := cr.U64s(); got != nil {
		t.Errorf("U64s on hostile length returned %d entries", len(got))
	}
	if err := cr.Err(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("hostile slice length: err = %v, want ErrCorrupt", err)
	}

	// A length within the limit over a stream that ends at once is
	// truncated, having allocated what the stream held, not what it
	// declared (2 GiB of entries, 256 MiB of bytes).
	var short bytes.Buffer
	NewCkptWriter(&short).U64(maxCkptField)
	for name, read := range map[string]func(*CkptReader){
		"Bytes": func(cr *CkptReader) { cr.Bytes() },
		"U64s":  func(cr *CkptReader) { cr.U64s() },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cr := NewCkptReader(bytes.NewReader(short.Bytes()))
		read(cr)
		runtime.ReadMemStats(&after)
		if err := cr.Err(); !errors.Is(err, faults.ErrTruncated) {
			t.Errorf("%s of a declared %d over an empty stream: err = %v, want ErrTruncated", name, maxCkptField, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
			t.Errorf("%s of a declared %d over an empty stream allocated %d bytes", name, maxCkptField, d)
		}
	}
}

// TestCkptReaderVarintOverflow: a varint longer than 64 bits is damage,
// not an I/O failure, whether read through a plain io.Reader or a
// ByteReader.
func TestCkptReaderVarintOverflow(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xff}, 11)
	for name, r := range map[string]io.Reader{
		"byte reader":  bytes.NewReader(overlong),
		"plain reader": struct{ io.Reader }{bytes.NewReader(overlong)},
	} {
		cr := NewCkptReader(r)
		cr.U64()
		if got := faults.Class(cr.Err()); got != "corrupt" {
			t.Errorf("%s: 11 bytes of 0xff: class %q (%v), want corrupt", name, got, cr.Err())
		}
	}
}

func TestCkptReaderBadBool(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCkptWriter(&buf)
	cw.U64(2)
	cr := NewCkptReader(bytes.NewReader(buf.Bytes()))
	cr.Bool()
	if err := cr.Err(); !errors.Is(err, faults.ErrCorrupt) {
		t.Errorf("Bool(2): err = %v, want ErrCorrupt", err)
	}
}

func TestCkptReaderStickyError(t *testing.T) {
	cr := NewCkptReader(strings.NewReader(""))
	cr.U64()
	first := cr.Err()
	if first == nil {
		t.Fatal("expected error on empty stream")
	}
	cr.Corrupt("later corruption")
	cr.I64()
	if cr.Err() != first {
		t.Errorf("error not sticky: %v then %v", first, cr.Err())
	}
}

func TestCkptWriterStickyError(t *testing.T) {
	cw := NewCkptWriter(failWriter{})
	cw.Header("demo", 1)
	cw.U64(7)
	if cw.Err() == nil {
		t.Fatal("expected write error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
