// Package cst implements a ChampSim-Style Trace: a binary format with one
// fixed-size record per executed instruction (not just branches), consumed
// by the cycle-level processor model in internal/uarch.
//
// The format stands in for the champsimtrace format used by the DPC3 trace
// set in the paper's evaluation (§VII-A). Like ChampSim's input_instr, each
// 64-byte record carries the instruction pointer, destination/source
// registers and destination/source memory addresses; branches are not
// described explicitly but inferred from reads and writes of the special
// instruction-pointer, stack-pointer and flags registers, and the branch
// target is recovered from the IP of the next record. This is why the
// format is an order of magnitude larger per instruction than SBBT is per
// branch — the effect Table I quantifies (42× for DPC3).
//
// Record layout (64 bytes, little endian):
//
//	bytes 0-7   instruction pointer
//	byte  8     is_branch
//	byte  9     branch_taken
//	bytes 10-11 destination registers
//	bytes 12-15 source registers
//	bytes 16-31 destination memory addresses (2 × uint64)
//	bytes 32-63 source memory addresses (4 × uint64)
//
// A register slot value of 0 means "unused".
package cst

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
)

// Special architectural registers, mirroring ChampSim's champsim::REG_*.
const (
	RegInvalid            = 0
	RegStackPointer       = 6
	RegInstructionPointer = 26
	RegFlags              = 25
	// RegGeneralFirst is the first register number free for general use.
	RegGeneralFirst = 32
	// NumRegs is the size of the architectural register file modeled.
	NumRegs = 256
)

// RecordSize is the encoded size of one instruction record.
const RecordSize = 64

// Magic opens every CST trace, followed by a little-endian uint64
// instruction count.
var Magic = [4]byte{'C', 'S', 'T', '1'}

// HeaderSize is the encoded size of the trace header.
const HeaderSize = 12

// Instruction is one executed instruction.
type Instruction struct {
	IP          uint64
	IsBranch    bool
	BranchTaken bool
	DestRegs    [2]uint8
	SrcRegs     [4]uint8
	DestMem     [2]uint64
	SrcMem      [4]uint64
}

// readsReg reports whether the instruction reads architectural register r.
func (in *Instruction) readsReg(r uint8) bool {
	for _, s := range in.SrcRegs {
		if s == r {
			return true
		}
	}
	return false
}

// writesReg reports whether the instruction writes architectural register r.
func (in *Instruction) writesReg(r uint8) bool {
	for _, d := range in.DestRegs {
		if d == r {
			return true
		}
	}
	return false
}

// readsGeneral reports whether the instruction reads any general register.
func (in *Instruction) readsGeneral() bool {
	for _, s := range in.SrcRegs {
		if s >= RegGeneralFirst {
			return true
		}
	}
	return false
}

// IsLoad reports whether the instruction reads memory.
func (in *Instruction) IsLoad() bool { return in.SrcMem[0] != 0 }

// IsStore reports whether the instruction writes memory.
func (in *Instruction) IsStore() bool { return in.DestMem[0] != 0 }

// Classify infers the branch opcode from the register sets, following
// ChampSim's classification of input_instr:
//
//	writes IP                            → it is a branch
//	reads FLAGS                          → conditional (direct jump)
//	reads IP and writes SP               → call (push of the return address)
//	reads SP, writes SP, no IP read      → return
//	reads a general register             → indirect
//
// It returns false if the instruction is not a branch.
func (in *Instruction) Classify() (bp.Opcode, bool) {
	if !in.IsBranch || !in.writesReg(RegInstructionPointer) {
		return 0, false
	}
	indirect := in.readsGeneral()
	switch {
	case in.readsReg(RegFlags):
		return bp.NewOpcode(bp.Jump, true, indirect), true
	case in.readsReg(RegInstructionPointer) && in.writesReg(RegStackPointer):
		return bp.NewOpcode(bp.Call, false, indirect), true
	case in.readsReg(RegStackPointer) && in.writesReg(RegStackPointer):
		return bp.NewOpcode(bp.Ret, false, true), true
	default:
		return bp.NewOpcode(bp.Jump, false, indirect), true
	}
}

// SetBranch fills the register sets so that Classify recovers op, the way
// the tracing tool marks branches when producing ChampSim traces.
func (in *Instruction) SetBranch(op bp.Opcode, taken bool) {
	in.IsBranch = true
	in.BranchTaken = taken
	in.DestRegs = [2]uint8{RegInstructionPointer, 0}
	in.SrcRegs = [4]uint8{}
	i := 0
	add := func(r uint8) { in.SrcRegs[i] = r; i++ }
	if op.IsConditional() {
		add(RegFlags)
	}
	switch op.Base() {
	case bp.Call:
		add(RegInstructionPointer)
		add(RegStackPointer)
		in.DestRegs[1] = RegStackPointer
	case bp.Ret:
		add(RegStackPointer)
		in.DestRegs[1] = RegStackPointer
	}
	if op.IsIndirect() && op.Base() != bp.Ret {
		add(RegGeneralFirst)
	}
}

// AppendTo encodes the record into buf and returns the extended slice.
func (in *Instruction) AppendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, in.IP)
	buf = append(buf, b2u(in.IsBranch), b2u(in.BranchTaken))
	buf = append(buf, in.DestRegs[0], in.DestRegs[1])
	buf = append(buf, in.SrcRegs[0], in.SrcRegs[1], in.SrcRegs[2], in.SrcRegs[3])
	for _, m := range in.DestMem {
		buf = binary.LittleEndian.AppendUint64(buf, m)
	}
	for _, m := range in.SrcMem {
		buf = binary.LittleEndian.AppendUint64(buf, m)
	}
	return buf
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Decode fills the record from the first RecordSize bytes of buf.
func (in *Instruction) Decode(buf []byte) error {
	if len(buf) < RecordSize {
		return fmt.Errorf("cst: record needs %d bytes, have %d: %w", RecordSize, len(buf), bp.ErrTruncated)
	}
	in.IP = binary.LittleEndian.Uint64(buf[0:8])
	in.IsBranch = buf[8] != 0
	in.BranchTaken = buf[9] != 0
	in.DestRegs[0], in.DestRegs[1] = buf[10], buf[11]
	copy(in.SrcRegs[:], buf[12:16])
	for i := range in.DestMem {
		in.DestMem[i] = binary.LittleEndian.Uint64(buf[16+8*i:])
	}
	for i := range in.SrcMem {
		in.SrcMem[i] = binary.LittleEndian.Uint64(buf[32+8*i:])
	}
	return nil
}

// Reader streams instruction records from a CST trace.
type Reader struct {
	r     io.Reader
	total uint64
	read  uint64
	buf   []byte
	pos   int
	end   int
	err   error
}

const readerBufRecords = 1024

// NewReader validates the trace header and returns a Reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("cst: reading header: %w", bp.ErrTruncated)
		}
		return nil, fmt.Errorf("cst: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != Magic {
		return nil, fmt.Errorf("cst: bad magic: %w", faults.ErrCorrupt)
	}
	total := binary.LittleEndian.Uint64(hdr[4:12])
	return &Reader{r: r, total: total, buf: make([]byte, readerBufRecords*RecordSize)}, nil
}

// TotalInstructions returns the instruction count from the header.
func (r *Reader) TotalInstructions() uint64 { return r.total }

// Read decodes the next instruction into in. It returns io.EOF after the
// last record.
func (r *Reader) Read(in *Instruction) error {
	if r.err != nil {
		return r.err
	}
	if r.end-r.pos < RecordSize {
		if err := r.fill(); err != nil {
			r.err = err
			return err
		}
	}
	if err := in.Decode(r.buf[r.pos : r.pos+RecordSize]); err != nil {
		r.err = err
		return err
	}
	r.pos += RecordSize
	r.read++
	return nil
}

func (r *Reader) fill() error {
	leftover := copy(r.buf, r.buf[r.pos:r.end])
	r.pos, r.end = 0, leftover
	for r.end < RecordSize {
		n, err := r.r.Read(r.buf[r.end:])
		r.end += n
		if err != nil {
			if err == io.EOF {
				// Readers may return data together with io.EOF; whole
				// buffered records are still consumable, and the next fill
				// observes the bare EOF.
				if r.end >= RecordSize {
					return nil
				}
				if r.end == 0 {
					if r.read < r.total {
						return fmt.Errorf("cst: trace ends after %d of %d records: %w", r.read, r.total, bp.ErrTruncated)
					}
					return io.EOF
				}
				return fmt.Errorf("cst: trace ends mid-record: %w", bp.ErrTruncated)
			}
			return err
		}
	}
	return nil
}

// Writer encodes instruction records into a CST trace.
type Writer struct {
	w       io.Writer
	total   uint64
	written uint64
	buf     []byte
	err     error
}

// NewWriter writes the header (with the promised instruction count) and
// returns a Writer ready for records.
func NewWriter(w io.Writer, totalInstructions uint64) (*Writer, error) {
	buf := make([]byte, 0, readerBufRecords*RecordSize)
	buf = append(buf, Magic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, totalInstructions)
	return &Writer{w: w, total: totalInstructions, buf: buf}, nil
}

// Write appends one record.
func (w *Writer) Write(in *Instruction) error {
	if w.err != nil {
		return w.err
	}
	if w.written == w.total {
		w.err = fmt.Errorf("cst: more than the %d records promised by the header", w.total)
		return w.err
	}
	w.buf = in.AppendTo(w.buf)
	w.written++
	if len(w.buf) >= readerBufRecords*RecordSize {
		_, err := w.w.Write(w.buf)
		w.buf = w.buf[:0]
		w.err = err
	}
	return w.err
}

// Close flushes buffered records and verifies the promised count. It does
// not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		if _, err := w.w.Write(w.buf); err != nil {
			w.err = err
			return err
		}
		w.buf = w.buf[:0]
	}
	w.err = errors.New("cst: writer closed")
	if w.written != w.total {
		return fmt.Errorf("cst: wrote %d records, header promised %d", w.written, w.total)
	}
	return nil
}
