// Package sbbt implements the Simple Binary Branch Trace format, version
// 1.0.0, as specified in §IV-C of the MBPlib paper (Figs. 1 and 2).
//
// An SBBT trace is a 192-bit header followed by a concatenation of 128-bit
// packets, one per dynamic branch. In contrast to the BT9 text format it
// replaces, SBBT has no branch-graph section: each packet carries the full
// description of its branch, so the reader is a straight-line stream decoder
// with no hashed metadata lookups — the property the paper credits for most
// of the simulation speedup (§VII-D).
//
// Header (24 bytes):
//
//	bytes 0-4   signature "SBBT\n"
//	bytes 5-7   version: major, minor, patch as unsigned 8-bit numbers
//	bytes 8-15  number of instructions executed while tracing (uint64 LE)
//	bytes 16-23 number of branches in the trace (uint64 LE)
//
// Packet (16 bytes, two little-endian 64-bit blocks):
//
//	block 1: bits 12-63 branch instruction address (52 bits)
//	         bits 0-3   opcode (see bp.Opcode)
//	         bits 4-10  reserved, must be zero
//	         bit  11    outcome (1 = taken)
//	block 2: bits 12-63 branch target address (52 bits)
//	         bits 0-11  instructions executed since the previous branch,
//	                    counting neither branch (≤ 4095)
//
// Addresses store the low 52 bits of the virtual address in the top 52 bits
// of the block; decoding performs an arithmetic right shift by 12, which
// sign-extends bit 51 so that both the 48-bit x86-64 and the 52-bit ARMv8-A
// (LVA) canonical address spaces round-trip exactly.
//
// # Integrity checksums
//
// As an extension to the paper's format, a trace may carry CRC-32C
// checksums. The extension is flagged in bit 63 of the branch-count header
// word, which is far beyond any plausible branch count (readers cap counts
// at MaxTraceBranches) and is zero in every pre-existing trace, so
// checksum-free traces keep reading unchanged. When the flag is set, the
// 24-byte header is followed by a 4-byte little-endian CRC-32C of those 24
// bytes, and the packet stream is divided into chunks of
// ChecksumChunkPackets packets, each followed by a 4-byte little-endian
// CRC-32C of the chunk's packet bytes; the final, possibly partial, chunk is
// checksummed too. See DESIGN.md for the rationale and compatibility rules.
//
// All decoding errors are classified with the internal/faults taxonomy:
// malformed bytes wrap faults.ErrCorrupt, premature end of input wraps
// faults.ErrTruncated (aliased as bp.ErrTruncated), and implausible
// header-declared sizes wrap faults.ErrLimit.
package sbbt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
)

// Signature is the 5-byte magic that opens every SBBT trace.
var Signature = [5]byte{'S', 'B', 'B', 'T', '\n'}

// Format version implemented by this package.
const (
	VersionMajor = 1
	VersionMinor = 0
	VersionPatch = 0
)

// HeaderSize and PacketSize are the encoded sizes in bytes.
const (
	HeaderSize = 24
	PacketSize = 16
)

// Checksum-extension constants.
const (
	// ChecksumChunkPackets is the number of packets covered by each CRC-32C
	// chunk trailer in a checksummed trace (64 KiB of packet data).
	ChecksumChunkPackets = 4096
	// ChecksumSize is the encoded size of each CRC-32C value.
	ChecksumSize = 4
	// checksumFlagBit is the bit of the branch-count header word that marks
	// a checksummed trace. Branch counts occupy bits 0-62.
	checksumFlagBit = 63
)

// MaxTraceBranches is the largest branch count a reader accepts from a
// header. 2^48 branches is three orders of magnitude beyond the largest
// published CBP-5 traces; a count above it marks the trace hostile or
// corrupt and is rejected with faults.ErrLimit before any allocation.
const MaxTraceBranches = 1 << 48

// castagnoli is the CRC-32C table shared by writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded SBBT trace header.
type Header struct {
	Major, Minor, Patch uint8
	// TotalInstructions is the number of instructions (branch and
	// non-branch) executed by the processor during tracing.
	TotalInstructions uint64
	// TotalBranches is the number of branch packets in the trace.
	TotalBranches uint64
	// Checksummed marks a trace that carries the CRC-32C extension: a
	// header checksum plus per-chunk packet checksums (see the package
	// documentation). It is encoded as bit 63 of the branch-count word.
	Checksummed bool
}

// NewHeader returns a current-version header with the given totals.
func NewHeader(totalInstructions, totalBranches uint64) Header {
	return Header{
		Major: VersionMajor, Minor: VersionMinor, Patch: VersionPatch,
		TotalInstructions: totalInstructions,
		TotalBranches:     totalBranches,
	}
}

// Version renders the header version as "major.minor.patch".
func (h Header) Version() string {
	return fmt.Sprintf("%d.%d.%d", h.Major, h.Minor, h.Patch)
}

// AppendTo encodes the header into buf, which must have room for HeaderSize
// bytes, and returns the extended slice.
func (h Header) AppendTo(buf []byte) []byte {
	buf = append(buf, Signature[:]...)
	buf = append(buf, h.Major, h.Minor, h.Patch)
	buf = binary.LittleEndian.AppendUint64(buf, h.TotalInstructions)
	branchWord := h.TotalBranches
	if h.Checksummed {
		branchWord |= 1 << checksumFlagBit
	}
	buf = binary.LittleEndian.AppendUint64(buf, branchWord)
	return buf
}

// ParseHeader decodes a header from the first HeaderSize bytes of buf. It
// validates only the fixed layout (signature, major version); plausibility
// of the declared totals is Header.CheckTotals, which the readers apply
// where the totals drive allocation.
func ParseHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, fmt.Errorf("sbbt: header needs %d bytes, have %d: %w", HeaderSize, len(buf), bp.ErrTruncated)
	}
	if [5]byte(buf[:5]) != Signature {
		return Header{}, fmt.Errorf("sbbt: bad signature: %w", faults.ErrCorrupt)
	}
	branchWord := binary.LittleEndian.Uint64(buf[16:24])
	h := Header{
		Major: buf[5], Minor: buf[6], Patch: buf[7],
		TotalInstructions: binary.LittleEndian.Uint64(buf[8:16]),
		TotalBranches:     branchWord &^ (1 << checksumFlagBit),
		Checksummed:       branchWord>>checksumFlagBit&1 == 1,
	}
	if h.Major != VersionMajor {
		return Header{}, fmt.Errorf("sbbt: unsupported major version %d (want %d): %w", h.Major, VersionMajor, faults.ErrCorrupt)
	}
	return h, nil
}

// CheckTotals rejects a header whose declared sizes are implausible: a
// branch count above MaxTraceBranches (faults.ErrLimit) or more branches
// than instructions (faults.ErrCorrupt). Every reader applies it before
// the totals drive an allocation.
func (h Header) CheckTotals() error {
	if h.TotalBranches > MaxTraceBranches {
		return fmt.Errorf("sbbt: header declares %d branches, limit %d: %w", h.TotalBranches, uint64(MaxTraceBranches), faults.ErrLimit)
	}
	if h.TotalBranches > h.TotalInstructions {
		return fmt.Errorf("sbbt: header declares %d branches but only %d instructions: %w", h.TotalBranches, h.TotalInstructions, faults.ErrCorrupt)
	}
	return nil
}

// Address-encoding limits: a virtual address round-trips iff it is canonical
// for a 52-bit address space, i.e. bits 52-63 are a sign extension of bit 51.
const (
	addrShift = 12
	lowMask   = uint64(1)<<addrShift - 1 // low 12 bits of a block
)

// CanonicalAddress reports whether addr is representable in an SBBT block.
func CanonicalAddress(addr uint64) bool {
	top := int64(addr) >> 51
	return top == 0 || top == -1
}

// Packet field offsets within block 1.
const (
	opcodeMask  = uint64(0xf)
	reservedBit = 4
	outcomeBit  = 11
)

// EncodePacket encodes one branch event into buf, which must have room for
// PacketSize bytes, returning the extended slice. It returns an error if the
// event violates the format rules (invalid opcode or outcome combination,
// non-canonical address, or an instruction gap above 4095).
func EncodePacket(buf []byte, ev bp.Event) ([]byte, error) {
	b := ev.Branch
	if err := b.Validate(); err != nil {
		return buf, err
	}
	if !CanonicalAddress(b.IP) {
		return buf, fmt.Errorf("sbbt: branch address %#x not canonical for 52-bit encoding", b.IP)
	}
	if !CanonicalAddress(b.Target) {
		return buf, fmt.Errorf("sbbt: target address %#x not canonical for 52-bit encoding", b.Target)
	}
	if ev.InstrsSinceLastBranch > bp.MaxInstrGap {
		return buf, fmt.Errorf("sbbt: %d instructions between branches exceeds the 12-bit limit %d", ev.InstrsSinceLastBranch, bp.MaxInstrGap)
	}
	block1 := b.IP<<addrShift | uint64(b.Opcode)&opcodeMask
	if b.Taken {
		block1 |= 1 << outcomeBit
	}
	block2 := b.Target<<addrShift | ev.InstrsSinceLastBranch
	buf = binary.LittleEndian.AppendUint64(buf, block1)
	buf = binary.LittleEndian.AppendUint64(buf, block2)
	return buf, nil
}

// DecodePacket decodes one packet from the first PacketSize bytes of buf.
// It enforces the format validity rules of §IV-C.
func DecodePacket(buf []byte) (bp.Event, error) {
	if len(buf) < PacketSize {
		return bp.Event{}, fmt.Errorf("sbbt: packet needs %d bytes, have %d: %w", PacketSize, len(buf), bp.ErrTruncated)
	}
	block1 := binary.LittleEndian.Uint64(buf[0:8])
	block2 := binary.LittleEndian.Uint64(buf[8:16])
	if block1>>reservedBit&0x7f != 0 {
		return bp.Event{}, fmt.Errorf("sbbt: reserved bits set in packet %#x: %w", block1, faults.ErrCorrupt)
	}
	ev := bp.Event{
		Branch: bp.Branch{
			IP:     uint64(int64(block1) >> addrShift),
			Target: uint64(int64(block2) >> addrShift),
			Opcode: bp.Opcode(block1 & opcodeMask),
			Taken:  block1>>outcomeBit&1 == 1,
		},
		InstrsSinceLastBranch: block2 & lowMask,
	}
	if err := ev.Branch.Validate(); err != nil {
		return bp.Event{}, fmt.Errorf("%w: %w", err, faults.ErrCorrupt)
	}
	return ev, nil
}

// Reader streams branch events from an SBBT trace. It implements bp.Reader
// and bp.Sizer. Create one with NewReader.
type Reader struct {
	r      io.Reader
	header Header
	buf    []byte // read-ahead buffer
	pos    int    // consume position in buf
	end    int    // valid bytes in buf
	read   uint64 // packets decoded so far
	err    error
}

// readerBufPackets is the number of packets fetched per underlying read.
const readerBufPackets = 4096

// NewReader consumes and validates the header of an SBBT trace and returns
// a Reader positioned at the first packet. The input must already be
// decompressed (see package compress for auto-detection).
//
// Beyond the layout checks of ParseHeader, NewReader rejects headers whose
// declared sizes are implausible (Header.CheckTotals), so a hostile header
// cannot drive large allocations. For checksummed
// traces it verifies the header CRC-32C here and then verifies each chunk
// trailer as the packet stream is consumed.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("sbbt: reading header: %w", bp.ErrTruncated)
		}
		return nil, fmt.Errorf("sbbt: reading header: %w", err)
	}
	h, err := ParseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if err := h.CheckTotals(); err != nil {
		return nil, err
	}
	if h.Checksummed {
		var trailer [ChecksumSize]byte
		if _, err := io.ReadFull(r, trailer[:]); err != nil {
			return nil, fmt.Errorf("sbbt: reading header checksum: %w", bp.ErrTruncated)
		}
		want := binary.LittleEndian.Uint32(trailer[:])
		if got := crc32.Checksum(hdr[:], castagnoli); got != want {
			return nil, fmt.Errorf("sbbt: header checksum mismatch (got %#08x, want %#08x): %w", got, want, faults.ErrCorrupt)
		}
		r = &crcChunkReader{r: r, packetsLeft: h.TotalBranches}
	}
	// Size the read-ahead buffer from the (now vetted) branch count so tiny
	// traces do not pay for a 64 KiB buffer.
	bufPackets := uint64(readerBufPackets)
	if h.TotalBranches < bufPackets {
		bufPackets = max(h.TotalBranches, 1)
	}
	return &Reader{r: r, header: h, buf: make([]byte, bufPackets*PacketSize)}, nil
}

// crcChunkReader sits between the raw byte stream and the packet decoder of
// a checksummed trace. It serves only packet bytes, transparently consuming
// and verifying the 4-byte CRC-32C trailer that follows each chunk of up to
// ChecksumChunkPackets packets. After the last chunk's trailer it reports
// io.EOF, so packets beyond the declared branch count are never decoded.
type crcChunkReader struct {
	r           io.Reader
	packetsLeft uint64 // packets not yet assigned to a chunk
	chunkLeft   uint64 // unread packet bytes in the current chunk
	inChunk     bool   // a chunk is open; its trailer is still unread
	crc         uint32
	err         error
}

func (c *crcChunkReader) Read(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	for c.chunkLeft == 0 {
		if c.inChunk {
			// The current chunk's packets are fully consumed: its trailer
			// comes next in the stream.
			var trailer [ChecksumSize]byte
			if _, err := io.ReadFull(c.r, trailer[:]); err != nil {
				c.err = fmt.Errorf("sbbt: reading chunk checksum: %w", bp.ErrTruncated)
				return 0, c.err
			}
			if want := binary.LittleEndian.Uint32(trailer[:]); c.crc != want {
				c.err = fmt.Errorf("sbbt: chunk checksum mismatch (got %#08x, want %#08x): %w", c.crc, want, faults.ErrCorrupt)
				return 0, c.err
			}
			c.inChunk = false
		}
		if c.packetsLeft == 0 {
			c.err = io.EOF
			return 0, c.err
		}
		n := c.packetsLeft
		if n > ChecksumChunkPackets {
			n = ChecksumChunkPackets
		}
		c.packetsLeft -= n
		c.chunkLeft = n * PacketSize
		c.crc = 0
		c.inChunk = true
	}
	if uint64(len(p)) > c.chunkLeft {
		p = p[:c.chunkLeft]
	}
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.chunkLeft -= uint64(n)
	if err == io.EOF && c.chunkLeft == 0 {
		// The stream may end exactly with the last packet byte of a chunk
		// while the trailer is still pending; surface the data now and let
		// the next call discover the missing trailer.
		err = nil
	}
	return n, err
}

// Header returns the decoded trace header.
func (r *Reader) Header() Header { return r.header }

// TotalInstructions implements bp.Sizer.
func (r *Reader) TotalInstructions() uint64 { return r.header.TotalInstructions }

// TotalBranches implements bp.Sizer.
func (r *Reader) TotalBranches() uint64 { return r.header.TotalBranches }

// Read returns the next branch event. It returns io.EOF after the last
// packet, and bp.ErrTruncated if the stream ends before the branch count
// promised by the header.
func (r *Reader) Read() (bp.Event, error) {
	if r.err != nil {
		return bp.Event{}, r.err
	}
	if r.end-r.pos < PacketSize {
		if err := r.fill(); err != nil {
			r.err = err
			return bp.Event{}, err
		}
	}
	ev, err := DecodePacket(r.buf[r.pos : r.pos+PacketSize])
	if err != nil {
		r.err = err
		return bp.Event{}, err
	}
	r.pos += PacketSize
	r.read++
	return ev, nil
}

// Packet validity classes, precomputed over the low 12 bits of block 1
// (opcode, reserved bits, outcome) so the batch decoder replaces the
// generic per-packet validation with one table load. See packetClassTable.
const (
	packetBad        = 0 // reserved bits set, bad opcode, or bad outcome
	packetOK         = 1 // valid regardless of the other fields
	packetNeedNullTg = 2 // valid only with a null target (not-taken cond. ind.)
)

// packetClassTable classifies every possible low-12-bit pattern of block 1.
// Valid packets touch at most 32 entries (reserved bits clear), so the
// table stays cache-hot.
var packetClassTable = func() [1 << 12]uint8 {
	var t [1 << 12]uint8
	for bits := range t {
		if uint64(bits)>>reservedBit&0x7f != 0 {
			continue // reserved bits set: packetBad
		}
		op := bp.Opcode(uint64(bits) & opcodeMask)
		taken := uint64(bits)>>outcomeBit&1 == 1
		if (bp.Branch{Opcode: op, Taken: taken}).Validate() != nil {
			// Invalid regardless of target — unless this is the one rule
			// that depends on the target: a not-taken conditional indirect
			// branch is valid exactly when its target is null.
			if op.Valid() && op.IsConditional() && op.IsIndirect() && !taken {
				t[bits] = packetNeedNullTg
			}
			continue
		}
		if op.IsConditional() && op.IsIndirect() && !taken {
			t[bits] = packetNeedNullTg
			continue
		}
		t[bits] = packetOK
	}
	return t
}()

// ReadBatch implements bp.BatchReader: it decodes up to len(dst) packets
// into dst and returns how many it decoded. The whole packets each fill
// buffers go through AppendPackets straight into the caller's slice: no
// read syscall per packet. Errors follow
// the "error after n" contract: dst[:n] is valid even when err is non-nil,
// and the error is sticky thereafter.
func (r *Reader) ReadBatch(dst []bp.Event) (int, error) {
	n := 0
	for n < len(dst) {
		if r.err != nil {
			return n, r.err
		}
		if r.end-r.pos < PacketSize {
			if err := r.fill(); err != nil {
				r.err = err
				return n, err
			}
		}
		// Decode every whole packet the buffer holds, bounded by dst.
		avail := (r.end - r.pos) / PacketSize
		if rem := len(dst) - n; avail > rem {
			avail = rem
		}
		got, err := AppendPackets(dst[n:n], r.buf[r.pos:r.pos+avail*PacketSize])
		r.pos += len(got) * PacketSize
		r.read += uint64(len(got))
		n += len(got)
		if err != nil {
			r.err = err
			return n, err
		}
	}
	return n, nil
}

// AppendPackets appends the events of buf's whole packets to dst; bytes
// past the last whole packet are the caller's. It is the one batch decode
// loop, ReadBatch's too: per packet, two loads, a table-driven validity
// check and a store. A packet failing the check is re-decoded through
// DecodePacket, so the error is the scalar path's, after the events
// before it.
func AppendPackets(dst []bp.Event, buf []byte) ([]bp.Event, error) {
	n := len(dst)
	dst = slices.Grow(dst, len(buf)/PacketSize)
	dst = dst[:n+len(buf)/PacketSize]
	for i := 0; n < len(dst); i += PacketSize {
		block1 := binary.LittleEndian.Uint64(buf[i : i+8])
		block2 := binary.LittleEndian.Uint64(buf[i+8 : i+16])
		target := uint64(int64(block2) >> addrShift)
		switch packetClassTable[block1&(1<<12-1)] {
		case packetOK:
		case packetNeedNullTg:
			if target != 0 {
				return dst[:n], badPacket(buf[i : i+PacketSize])
			}
		default:
			return dst[:n], badPacket(buf[i : i+PacketSize])
		}
		dst[n] = bp.Event{
			Branch: bp.Branch{
				IP:     uint64(int64(block1) >> addrShift),
				Target: target,
				Opcode: bp.Opcode(block1 & opcodeMask),
				Taken:  block1>>outcomeBit&1 == 1,
			},
			InstrsSinceLastBranch: block2 & lowMask,
		}
		n++
	}
	return dst, nil
}

// badPacket re-decodes a packet the fast check rejected through the
// generic path, producing exactly the diagnostic the scalar Read would.
func badPacket(pkt []byte) error {
	_, err := DecodePacket(pkt)
	if err == nil {
		// Unreachable unless the class table and DecodePacket disagree;
		// fail closed as corruption rather than silently diverging.
		err = fmt.Errorf("sbbt: packet rejected by batch decoder: %w", faults.ErrCorrupt)
	}
	return err
}

// fill slides leftover bytes to the front of the buffer and reads more.
func (r *Reader) fill() error {
	leftover := copy(r.buf, r.buf[r.pos:r.end])
	r.pos, r.end = 0, leftover
	for r.end < PacketSize {
		n, err := r.r.Read(r.buf[r.end:])
		r.end += n
		if err != nil {
			if err == io.EOF {
				// Readers may return data together with io.EOF; whole
				// buffered packets are still consumable, and the next fill
				// observes the bare EOF.
				if r.end >= PacketSize {
					return nil
				}
				if r.end == 0 {
					if r.read < r.header.TotalBranches {
						return fmt.Errorf("sbbt: trace ends after %d of %d branches: %w", r.read, r.header.TotalBranches, bp.ErrTruncated)
					}
					return io.EOF
				}
				return fmt.Errorf("sbbt: trace ends mid-packet: %w", bp.ErrTruncated)
			}
			return err
		}
	}
	return nil
}

// Writer encodes branch events into an SBBT trace. It implements bp.Writer.
// The totals must be known up front because the header precedes the packets
// and traces are typically written through a non-seekable compression layer.
// Close verifies that exactly the promised number of events were written.
type Writer struct {
	w       io.Writer
	header  Header
	buf     []byte
	written uint64
	instrs  uint64
	err     error
	// Checksum-extension state (used only when header.Checksummed).
	chunkCRC     uint32
	chunkPackets uint64
}

// NewWriter writes the trace header and returns a Writer ready for packets.
func NewWriter(w io.Writer, totalInstructions, totalBranches uint64) (*Writer, error) {
	return newWriter(w, totalInstructions, totalBranches, false)
}

// NewChecksumWriter is NewWriter with the CRC-32C integrity extension
// enabled: the emitted trace carries a header checksum and per-chunk packet
// checksums, and readers verify both (see the package documentation).
func NewChecksumWriter(w io.Writer, totalInstructions, totalBranches uint64) (*Writer, error) {
	return newWriter(w, totalInstructions, totalBranches, true)
}

func newWriter(w io.Writer, totalInstructions, totalBranches uint64, checksummed bool) (*Writer, error) {
	if totalBranches > MaxTraceBranches {
		return nil, fmt.Errorf("sbbt: %d branches exceeds the format limit %d: %w", totalBranches, uint64(MaxTraceBranches), faults.ErrLimit)
	}
	h := NewHeader(totalInstructions, totalBranches)
	h.Checksummed = checksummed
	buf := h.AppendTo(make([]byte, 0, readerBufPackets*PacketSize))
	if checksummed {
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[:HeaderSize], castagnoli))
	}
	return &Writer{w: w, header: h, buf: buf}, nil
}

// Header returns the header this writer emitted.
func (w *Writer) Header() Header { return w.header }

// Write appends one event to the trace.
func (w *Writer) Write(ev bp.Event) error {
	if w.err != nil {
		return w.err
	}
	if w.written == w.header.TotalBranches {
		w.err = fmt.Errorf("sbbt: more than the %d branches promised by the header", w.header.TotalBranches)
		return w.err
	}
	buf, err := EncodePacket(w.buf, ev)
	if err != nil {
		return err // event rejected; writer still usable
	}
	if w.header.Checksummed {
		w.chunkCRC = crc32.Update(w.chunkCRC, castagnoli, buf[len(buf)-PacketSize:])
		w.chunkPackets++
		if w.chunkPackets == ChecksumChunkPackets {
			buf = binary.LittleEndian.AppendUint32(buf, w.chunkCRC)
			w.chunkCRC, w.chunkPackets = 0, 0
		}
	}
	w.buf = buf
	w.written++
	w.instrs += ev.InstrsSinceLastBranch + 1
	if len(w.buf) >= readerBufPackets*PacketSize {
		w.err = w.flush()
	}
	return w.err
}

func (w *Writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Close flushes buffered packets and validates the totals against the
// header: the branch count must match exactly and the instruction count
// implied by the packets must not exceed the header's total. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.header.Checksummed && w.chunkPackets > 0 {
		// Trailer of the final, partial chunk.
		w.buf = binary.LittleEndian.AppendUint32(w.buf, w.chunkCRC)
		w.chunkCRC, w.chunkPackets = 0, 0
	}
	if err := w.flush(); err != nil {
		w.err = err
		return err
	}
	w.err = errors.New("sbbt: writer closed")
	if w.written != w.header.TotalBranches {
		return fmt.Errorf("sbbt: wrote %d branches, header promised %d", w.written, w.header.TotalBranches)
	}
	if w.instrs > w.header.TotalInstructions {
		return fmt.Errorf("sbbt: packets imply at least %d instructions, header promised %d", w.instrs, w.header.TotalInstructions)
	}
	return nil
}
