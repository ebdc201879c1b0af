// Package faults is the shared fault taxonomy of the trace-processing
// stack. Every reader in the suite — sbbt, bt9, compress, and the cycle
// trace — classifies its failures into one of four errors.Is-able classes,
// so that a caller scoring a predictor over hundreds of traces (§II of the
// MBPlib paper) can tell "this trace is bad" apart from "this code is bad"
// and decide whether to skip, retry, or abort:
//
//	ErrCorrupt        the bytes are present but violate the format
//	ErrTruncated      the input ends before the format says it may
//	ErrLimit          a header declares implausible sizes; refusing to
//	                  honor it bounds allocations on hostile inputs
//	ErrPredictorPanic a predictor (or other user callback) panicked and
//	                  the simulator converted the panic to an error
//	ErrDeadline       a sweep cell exceeded its configured wall-clock
//	                  budget (-cell-timeout) and was abandoned
//	ErrDrained        a sweep was asked to stop (SIGINT/SIGTERM drain)
//	                  before this cell finished; the work is resumable
//
// The package also provides the fault-injection harness (Injector,
// ShortReads) used by the corruption sweep tests: deterministic bit-flips,
// truncations, garbage writes and short reads layered over any io.Reader.
//
// faults is a leaf package (stdlib only) so that bp, the codecs, the
// simulator and the CLIs can all share it without cycles.
package faults

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
)

// The four fault classes. Readers wrap these with fmt.Errorf("...: %w", ...)
// so position detail survives while errors.Is still classifies.
var (
	// ErrCorrupt reports bytes that violate the trace or container format.
	ErrCorrupt = errors.New("corrupt input")
	// ErrTruncated reports input that ends mid-record or before the count
	// promised by its header.
	ErrTruncated = errors.New("truncated input")
	// ErrLimit reports a header whose declared sizes exceed the format's
	// plausibility caps. Enforcing it keeps a hostile 100-byte file from
	// requesting gigabytes of allocation.
	ErrLimit = errors.New("declared size exceeds format limit")
	// ErrPredictorPanic reports a panic recovered inside the simulator's
	// per-trace unit of work.
	ErrPredictorPanic = errors.New("predictor panicked")
	// ErrDeadline reports a sweep cell that ran past its configured
	// wall-clock deadline. It is permanent by classification: retrying the
	// same cell under the same budget would time out again.
	ErrDeadline = errors.New("cell deadline exceeded")
	// ErrDrained reports work abandoned because the sweep was draining
	// (graceful shutdown on SIGINT/SIGTERM). Unlike the other classes it
	// does not indict the trace or the code: the cell is resumable.
	ErrDrained = errors.New("sweep drained")
)

// PanicError carries a recovered panic value and the goroutine stack that
// raised it. It wraps ErrPredictorPanic, so errors.Is(err,
// faults.ErrPredictorPanic) classifies it, and errors.As recovers the stack.
type PanicError struct {
	Value any
	Stack []byte
}

// NewPanicError wraps a recovered value and its captured stack.
func NewPanicError(value any, stack []byte) *PanicError {
	return &PanicError{Value: value, Stack: stack}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("predictor panicked: %v", e.Value)
}

// Unwrap makes the error classifiable as ErrPredictorPanic.
func (e *PanicError) Unwrap() error { return ErrPredictorPanic }

// Class names the fault class of err for failure tables and JSON output:
// "corrupt", "truncated", "limit", "panic", "deadline", "drained", or
// "other" for errors outside the taxonomy (I/O failures, usage errors).
func Class(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrPredictorPanic):
		return "panic"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrLimit):
		return "limit"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrDrained):
		return "drained"
	}
	return "other"
}

// ClassifyRead types an error from reading one field of an encoded
// stream: an end of input is ErrTruncated, a varint too long for 64 bits
// (encoding/binary's overflow error, which has no exported value) is
// ErrCorrupt, and any other error, a real I/O failure, passes through
// unchanged.
func ClassifyRead(err error) error {
	switch {
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: %w", err, ErrTruncated)
	case strings.Contains(err.Error(), "overflow"):
		return fmt.Errorf("%w: %w", err, ErrCorrupt)
	}
	return err
}

// Permanent reports whether retrying the operation that produced err could
// possibly succeed. Classified trace faults are permanent — the bytes will
// not improve — as are missing files; anything else (an EMFILE, a network
// filesystem hiccup) is considered transient and worth a capped retry.
func Permanent(err error) bool {
	return Class(err) != "other" || errors.Is(err, fs.ErrNotExist)
}
