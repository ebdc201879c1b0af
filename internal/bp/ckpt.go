package bp

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"mbplib/internal/faults"
)

// Checkpointer is the optional serialization capability of a predictor.
// A predictor that implements it can have its complete internal state
// written to a stream and later restored into a freshly-constructed
// instance of the same configuration, after which the two instances are
// indistinguishable: every subsequent Predict/Train/Track sequence yields
// identical predictions and statistics. The simulator uses this to
// checkpoint in-flight sweep cells so that a killed run resumes from the
// last checkpoint instead of event zero; the planned mbpd daemon will use
// it to suspend and migrate jobs.
//
// The encoding contract is versioned and self-describing: a checkpoint
// starts with a header naming the predictor and a format version, followed
// by the configuration parameters the state depends on. Restore must
// reject a header for a different predictor, an unknown version, or a
// configuration that does not match the receiver — never reinterpret
// bytes. CkptWriter/CkptReader implement the framing; restore failures
// classify under the faults taxonomy (truncated/corrupt), so sweep policy
// handling applies unchanged.
type Checkpointer interface {
	// Checkpoint writes the predictor's complete state to w.
	Checkpoint(w io.Writer) error
	// Restore replaces the predictor's state with one previously written
	// by Checkpoint on an instance with identical configuration. If it
	// returns an error the receiver's state is unspecified: construct a
	// fresh instance before retrying.
	Restore(r io.Reader) error
}

// ckptMagic opens every predictor checkpoint stream.
const ckptMagic = "MBPC"

// maxCkptField bounds a single length-prefixed field of a checkpoint.
// Checkpoints come from local journal files, but a torn or hostile file
// must not be able to request an arbitrary allocation.
const maxCkptField = 1 << 28

// ckptGrowStep bounds how far a field's buffer grows ahead of the bytes
// read into it, so a field's memory follows the stream, not its declared
// length: a five-byte stream cannot make a reader allocate 2 GiB.
const ckptGrowStep = 1 << 16

// CkptWriter encodes checkpoint fields with a sticky error, so predictor
// Checkpoint implementations read as straight-line field lists with a
// single error check at the end. Integers use uvarint (signed values
// zigzag), byte fields are length-prefixed.
type CkptWriter struct {
	w   io.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

// NewCkptWriter returns a writer encoding to w.
func NewCkptWriter(w io.Writer) *CkptWriter { return &CkptWriter{w: w} }

// Header opens the stream: magic, predictor name, format version.
func (cw *CkptWriter) Header(name string, version uint64) {
	cw.raw([]byte(ckptMagic))
	cw.String(name)
	cw.U64(version)
}

func (cw *CkptWriter) raw(b []byte) {
	if cw.err != nil {
		return
	}
	_, cw.err = cw.w.Write(b)
}

// U64 writes an unsigned integer as a uvarint.
func (cw *CkptWriter) U64(v uint64) {
	n := binary.PutUvarint(cw.buf[:], v)
	cw.raw(cw.buf[:n])
}

// I64 writes a signed integer zigzag-encoded as a uvarint.
func (cw *CkptWriter) I64(v int64) {
	cw.U64(uint64(v<<1) ^ uint64(v>>63))
}

// Int writes an int via I64.
func (cw *CkptWriter) Int(v int) { cw.I64(int64(v)) }

// Bool writes a boolean as a single 0/1 uvarint.
func (cw *CkptWriter) Bool(b bool) {
	if b {
		cw.U64(1)
	} else {
		cw.U64(0)
	}
}

// Bytes writes a length-prefixed byte field.
func (cw *CkptWriter) Bytes(b []byte) {
	cw.U64(uint64(len(b)))
	cw.raw(b)
}

// String writes a length-prefixed string field.
func (cw *CkptWriter) String(s string) { cw.Bytes([]byte(s)) }

// U64s writes a length-prefixed slice of uvarints.
func (cw *CkptWriter) U64s(vs []uint64) {
	cw.U64(uint64(len(vs)))
	for _, v := range vs {
		cw.U64(v)
	}
}

// Err returns the first write error, if any.
func (cw *CkptWriter) Err() error { return cw.err }

// CkptReader decodes streams written by CkptWriter, with the same sticky
// error discipline. Decode failures carry the faults taxonomy: streams that
// end early classify as truncated, everything else malformed as corrupt.
type CkptReader struct {
	r   io.ByteReader
	rr  io.Reader
	err error
}

// NewCkptReader returns a reader decoding from r.
func NewCkptReader(r io.Reader) *CkptReader {
	type byteReader interface {
		io.Reader
		io.ByteReader
	}
	if br, ok := r.(byteReader); ok {
		return &CkptReader{r: br, rr: br}
	}
	br := &oneByteReader{r: r}
	return &CkptReader{r: br, rr: br}
}

// oneByteReader adapts a plain io.Reader without buffering ahead, so a
// CkptReader leaves the underlying stream positioned exactly after the
// checkpoint — required when a checkpoint is embedded in a larger record.
type oneByteReader struct {
	r   io.Reader
	buf [1]byte
}

func (o *oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func (o *oneByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(o.r, o.buf[:]); err != nil {
		return 0, err
	}
	return o.buf[0], nil
}

func (cr *CkptReader) fail(err error) {
	if cr.err == nil {
		cr.err = fmt.Errorf("checkpoint: %w", faults.ClassifyRead(err))
	}
}

// Corrupt records a corrupt-checkpoint error with a formatted detail
// message; subsequent reads return zero values.
func (cr *CkptReader) Corrupt(format string, args ...any) {
	if cr.err != nil {
		return
	}
	cr.err = fmt.Errorf("checkpoint: "+format+": %w", append(args, faults.ErrCorrupt)...)
}

// Header consumes and validates the stream header. It returns the encoded
// format version; the caller rejects versions it does not know. A header
// naming a different predictor fails as corrupt.
func (cr *CkptReader) Header(name string) uint64 {
	magic := make([]byte, len(ckptMagic))
	if cr.err == nil {
		if _, err := io.ReadFull(cr.rr, magic); err != nil {
			cr.fail(err)
		}
	}
	if cr.err == nil && string(magic) != ckptMagic {
		cr.Corrupt("bad magic %q", magic)
	}
	got := cr.String()
	if cr.err == nil && got != name {
		cr.Corrupt("checkpoint is for predictor %q, not %q", got, name)
	}
	return cr.U64()
}

// U64 reads a uvarint.
func (cr *CkptReader) U64() uint64 {
	if cr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(cr.r)
	if err != nil {
		cr.fail(err)
		return 0
	}
	return v
}

// I64 reads a zigzag-encoded signed integer.
func (cr *CkptReader) I64() int64 {
	u := cr.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads an int via I64.
func (cr *CkptReader) Int() int { return int(cr.I64()) }

// Bool reads a boolean; any value other than 0 or 1 is corrupt.
func (cr *CkptReader) Bool() bool {
	v := cr.U64()
	if v > 1 {
		cr.Corrupt("boolean field holds %d", v)
	}
	return v == 1
}

// Bytes reads a length-prefixed byte field, refusing implausible lengths.
func (cr *CkptReader) Bytes() []byte {
	n := cr.U64()
	if cr.err != nil {
		return nil
	}
	if n > maxCkptField {
		cr.Corrupt("field of %d bytes exceeds limit", n)
		return nil
	}
	b := make([]byte, 0, min(n, ckptGrowStep))
	for uint64(len(b)) < n {
		m := int(min(n-uint64(len(b)), ckptGrowStep))
		b = slices.Grow(b, m)
		if _, err := io.ReadFull(cr.rr, b[len(b):len(b)+m]); err != nil {
			cr.fail(err)
			return nil
		}
		b = b[:len(b)+m]
	}
	return b
}

// String reads a length-prefixed string field.
func (cr *CkptReader) String() string { return string(cr.Bytes()) }

// U64s reads a length-prefixed slice of uvarints.
func (cr *CkptReader) U64s() []uint64 {
	n := cr.U64()
	if cr.err != nil {
		return nil
	}
	if n > maxCkptField {
		cr.Corrupt("slice of %d entries exceeds limit", n)
		return nil
	}
	vs := make([]uint64, 0, min(n, ckptGrowStep))
	for range n {
		v := cr.U64()
		if cr.err != nil {
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// ExpectInt validates a configuration parameter embedded in the stream
// against the restoring instance's own value; a mismatch is corrupt.
func (cr *CkptReader) ExpectInt(field string, want int) {
	got := cr.Int()
	if cr.err == nil && got != want {
		cr.Corrupt("%s is %d, restoring instance has %d", field, got, want)
	}
}

// Err returns the first decode error, if any.
func (cr *CkptReader) Err() error { return cr.err }
