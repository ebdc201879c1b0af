package faults

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

func TestClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrCorrupt, "corrupt"},
		{ErrTruncated, "truncated"},
		{ErrLimit, "limit"},
		{ErrPredictorPanic, "panic"},
		{fmt.Errorf("sbbt: bad signature: %w", ErrCorrupt), "corrupt"},
		{fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", ErrTruncated)), "truncated"},
		{NewPanicError("boom", []byte("stack")), "panic"},
		{ErrDeadline, "deadline"},
		{ErrDrained, "drained"},
		{fmt.Errorf("cell gshare/trace0: %w", ErrDeadline), "deadline"},
		{fmt.Errorf("cell gshare/trace0: %w", ErrDrained), "drained"},
		{errors.New("something else"), "other"},
		{io.EOF, "other"},
	}
	for _, c := range cases {
		if got := Class(c.err); got != c.want {
			t.Errorf("Class(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestClassifyRead: the errors encoding/binary and io return for a field
// read are typed, and real I/O errors pass through untouched.
func TestClassifyRead(t *testing.T) {
	_, overflow := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, 11)))
	_, short := binary.ReadUvarint(bytes.NewReader([]byte{0xff}))
	ioErr := errors.New("disk on fire")
	for _, c := range []struct {
		err  error
		want string
	}{
		{overflow, "corrupt"},
		{short, "truncated"},
		{io.EOF, "truncated"},
		{fmt.Errorf("reading: %w", io.ErrUnexpectedEOF), "truncated"},
		{ioErr, "other"},
	} {
		got := ClassifyRead(c.err)
		if Class(got) != c.want || !errors.Is(got, c.err) {
			t.Errorf("ClassifyRead(%v) = %v, class %q, want %q wrapping the original", c.err, got, Class(got), c.want)
		}
	}
	if ClassifyRead(ioErr) != ioErr {
		t.Errorf("an I/O error must pass through unchanged")
	}
}

func TestPanicError(t *testing.T) {
	err := NewPanicError(42, []byte("goroutine 1 [running]"))
	if !errors.Is(err, ErrPredictorPanic) {
		t.Errorf("PanicError is not ErrPredictorPanic")
	}
	var pe *PanicError
	if !errors.As(fmt.Errorf("trace x: %w", err), &pe) {
		t.Fatalf("errors.As failed")
	}
	if pe.Value != 42 || string(pe.Stack) != "goroutine 1 [running]" {
		t.Errorf("PanicError fields = %v / %q", pe.Value, pe.Stack)
	}
}

func TestPermanent(t *testing.T) {
	if !Permanent(ErrCorrupt) || !Permanent(ErrLimit) || !Permanent(NewPanicError("x", nil)) {
		t.Errorf("classified faults must be permanent")
	}
	// Deadline and drain outcomes must not enter the transient-retry loop:
	// a timed-out cell would time out again, and a draining sweep must stop.
	if !Permanent(ErrDeadline) || !Permanent(ErrDrained) {
		t.Errorf("deadline/drained must be permanent (no in-process retry)")
	}
	if Permanent(errors.New("EMFILE-ish transient")) {
		t.Errorf("unclassified errors must be retryable")
	}
}

func input(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func readVia(t *testing.T, r io.Reader) []byte {
	t.Helper()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return out
}

func TestInjectorBitFlip(t *testing.T) {
	src := input(100)
	got := readVia(t, NewInjector(bytes.NewReader(src), BitFlip(37, 5)))
	want := append([]byte(nil), src...)
	want[37] ^= 1 << 5
	if !bytes.Equal(got, want) {
		t.Errorf("bit flip mismatch at %d", firstDiff(got, want))
	}
}

func TestInjectorTruncate(t *testing.T) {
	src := input(100)
	got := readVia(t, NewInjector(bytes.NewReader(src), Truncate(40)))
	if !bytes.Equal(got, src[:40]) {
		t.Errorf("truncate: got %d bytes", len(got))
	}
	// Truncation at 0 yields an empty stream.
	if got := readVia(t, NewInjector(bytes.NewReader(src), Truncate(0))); len(got) != 0 {
		t.Errorf("truncate(0): got %d bytes", len(got))
	}
}

func TestInjectorGarbage(t *testing.T) {
	src := input(100)
	got := readVia(t, NewInjector(bytes.NewReader(src), Garbage(20, 10, 7)))
	if bytes.Equal(got[20:30], src[20:30]) {
		t.Errorf("garbage did not change the bytes")
	}
	if !bytes.Equal(got[:20], src[:20]) || !bytes.Equal(got[30:], src[30:]) {
		t.Errorf("garbage leaked outside its range")
	}
	// Same seed, same garbage — regardless of read fragmentation.
	again := readVia(t, ShortReads(NewInjector(bytes.NewReader(src), Garbage(20, 10, 7)), 3))
	if !bytes.Equal(got, again) {
		t.Errorf("garbage not deterministic under short reads")
	}
	// Different seed, different garbage.
	other := readVia(t, NewInjector(bytes.NewReader(src), Garbage(20, 10, 8)))
	if bytes.Equal(got, other) {
		t.Errorf("different seeds produced identical garbage")
	}
}

func TestInjectorComposesFaults(t *testing.T) {
	src := input(100)
	got := readVia(t, NewInjector(bytes.NewReader(src), BitFlip(10, 0), BitFlip(10, 1), Truncate(50)))
	want := append([]byte(nil), src[:50]...)
	want[10] ^= 0b11
	if !bytes.Equal(got, want) {
		t.Errorf("composed faults mismatch at %d", firstDiff(got, want))
	}
}

func TestShortReads(t *testing.T) {
	src := input(1000)
	r := ShortReads(bytes.NewReader(src), 7)
	buf := make([]byte, 100)
	n, err := r.Read(buf)
	if err != nil || n != 7 {
		t.Errorf("Read = %d, %v; want 7, nil", n, err)
	}
	rest := readVia(t, r)
	if !bytes.Equal(append(buf[:n], rest...), src) {
		t.Errorf("short reads changed the content")
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
