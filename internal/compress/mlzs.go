package compress

// MLZS is the chunked container over the MLZ block codec, in the spirit
// of pgzip: the raw stream is cut into chunks, each coded on its own by the
// block codec both containers share (block.go) and framed with its
// decompressed size and a CRC-32C of the payload. Two things follow that
// an MLZ frame does not give: chunks are compressed in parallel with the
// same output bytes at any worker count, and damage is confined by the
// CRC, which is checked before a chunk is decoded, so a reader delivers
// exactly the bytes of the chunks before a damaged one and then a typed
// error. An MLZ block has no checksum; a flipped byte in it can decode to
// wrong bytes.
//
// Container layout:
//
//	header:
//	    magic "MLZS" (4 bytes)
//	    version 1 byte (currently 1)
//	    chunkSize uvarint — the writer's raw-bytes-per-chunk target
//	    align     uvarint — when non-zero, every chunk boundary lies at a
//	                        raw offset ≡ alignOff (mod align); 0 = unaligned
//	    alignOff  uvarint
//	repeated chunk frames:
//	    tag     1 byte    — 0x01 (chunk follows); 0x00 terminates the chunks
//	    rawLen  uvarint   — decompressed size of the chunk
//	    kind    1 byte    — 0 stored, 1 LZ, 2 Huffman (the block kinds)
//	    dataLen uvarint   — encoded payload size
//	    crc     4 bytes   — CRC-32C (Castagnoli) of the payload, little-endian
//	    payload dataLen bytes
//	index trailer (after the 0x00 tag):
//	    count uvarint, then per chunk:
//	        offDelta uvarint — frame offset minus the previous frame offset
//	                           (the first delta is the absolute header length)
//	        rawLen   uvarint
//	footer (fixed 12 bytes, located by seeking to end-of-file):
//	    trailerLen u32 LE | trailer CRC-32C u32 LE | end magic "SZLM"
//
// It is read like an MLZ frame, front to back by the one streaming reader
// (blockReader); no reader seeks. Only the frame header differs: the tag,
// and the CRC checked before decoding. Of the trailer the reader reads
// only the chunk count, which must match the chunks it decoded: a one-byte
// flip in the unchecksummed header can make a 0x00 byte read as the end
// tag. The rest of the trailer serves tooling that reports chunk geometry
// and index health (StatMLZSFile): ReadMLZSIndex locates it through the
// footer, a damaged trailer yields a typed faults.ErrCorrupt (never a
// wrong chunk table — it is CRC-protected), and ScanMLZSIndex rebuilds the
// table from the frames instead.
//
// The alignment fields put chunk boundaries on record boundaries: an SBBT
// stream written with align=16, alignOff=24 has every chunk boundary on a
// packet boundary (chunk 0 additionally holds the 24-byte header), so each
// chunk holds a whole number of events. No reader relies on it.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mbplib/internal/faults"
)

// mlzsMagic opens the container; mlzsEndMagic closes the footer (reversed,
// so neither can be mistaken for the other when sniffing either end).
var (
	mlzsMagic    = [4]byte{'M', 'L', 'Z', 'S'}
	mlzsEndMagic = [4]byte{'S', 'Z', 'L', 'M'}
)

const (
	mlzsVersion = 1
	// DefaultMLZSChunkSize is the raw bytes per chunk when MLZSOptions does
	// not say otherwise: 1 MiB keeps per-chunk compression ratios within a
	// few percent of the 4 MiB stream-MLZ blocks while cutting even short
	// traces into several independently decodable chunks.
	DefaultMLZSChunkSize = 1 << 20
	// mlzsChunkTag / mlzsEndTag frame the chunk sequence.
	mlzsChunkTag = 0x01
	mlzsEndTag   = 0x00
	// mlzsFooterSize is the fixed byte size of the end-of-file footer.
	mlzsFooterSize = 12
)

// mlzsCastagnoli is the CRC-32C table shared by chunk framing and trailer.
var mlzsCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// MLZSOptions configures an MLZS writer.
type MLZSOptions struct {
	// ChunkSize is the raw bytes per chunk; 0 means DefaultMLZSChunkSize.
	// Values are clamped to [1, the MLZ block size].
	ChunkSize int
	// Level selects the MLZ match-search effort per chunk.
	Level Level
	// Workers is the number of chunks compressed concurrently, pgzip-style.
	// <= 1 compresses inline on the Write caller. Output bytes are identical
	// at any worker count: chunks are independent and frames are written in
	// order.
	Workers int
	// Align and AlignOffset, when Align > 0, restrict chunk boundaries to
	// raw offsets ≡ AlignOffset (mod Align), so fixed-size records of the
	// inner stream never straddle a chunk. Alignment that cannot be honoured
	// (Align+AlignOffset exceeding the chunk size) is dropped.
	Align       int
	AlignOffset int
}

// normalized clamps the options to what the container can represent.
func (o MLZSOptions) normalized() MLZSOptions {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultMLZSChunkSize
	}
	if o.ChunkSize > mlzBlockSize {
		o.ChunkSize = mlzBlockSize
	}
	if o.Align <= 0 || o.AlignOffset < 0 || o.Align+o.AlignOffset > o.ChunkSize {
		o.Align, o.AlignOffset = 0, 0
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// mlzsChunkInfo is one trailer entry while writing.
type mlzsChunkInfo struct {
	off    int64 // file offset of the chunk frame
	rawLen int64
}

// mlzsJob is one chunk travelling through the parallel compression pool.
type mlzsJob struct {
	raw     []byte
	payload []byte
	kind    byte
	done    chan struct{}
}

// mlzsWriter implements io.WriteCloser for the MLZS container.
type mlzsWriter struct {
	w     io.Writer
	opts  MLZSOptions
	buf   []byte // current chunk being filled
	cut   int    // raw length the current chunk will be cut at
	off   int64  // bytes written to w so far
	raw   int64  // raw bytes consumed so far
	index []mlzsChunkInfo
	wrote bool // header emitted
	err   error

	// Parallel-compression state (opts.Workers > 1).
	jobs    chan *mlzsJob
	pending []*mlzsJob
	free    chan []byte

	// Inline-compression state (opts.Workers <= 1).
	enc mlzEncoder
}

// NewMLZSWriter returns a WriteCloser that writes the MLZS container into w.
// Close flushes the final chunk and writes the index trailer and footer but
// does not close w.
func NewMLZSWriter(w io.Writer, opts MLZSOptions) io.WriteCloser {
	z := &mlzsWriter{w: w, opts: opts.normalized()}
	if z.opts.Workers > 1 {
		z.jobs = make(chan *mlzsJob, z.opts.Workers)
		z.free = make(chan []byte, 2*z.opts.Workers)
		for i := 0; i < z.opts.Workers; i++ {
			go mlzsCompressWorker(z.jobs, z.opts.Level)
		}
	}
	return z
}

// mlzsCompressWorker compresses chunks until the jobs channel closes. Each
// worker owns its encoder state; payloads that alias encoder buffers are
// copied into the job so the worker can move on while the frame waits to be
// written in order.
func mlzsCompressWorker(jobs <-chan *mlzsJob, level Level) {
	var enc mlzEncoder
	for j := range jobs {
		var out []byte
		out, j.kind = enc.encodeBlock(j.raw, level)
		if j.kind == blockStored {
			j.payload = j.raw
		} else {
			j.payload = append(j.payload[:0], out...)
		}
		close(j.done)
	}
}

// chunkTarget returns the raw length the chunk starting at z.raw should be
// cut at, honouring the alignment constraint.
func (z *mlzsWriter) chunkTarget() int {
	target := z.opts.ChunkSize
	if a := int64(z.opts.Align); a > 0 {
		next := z.raw + int64(target)
		aligned := next - (next-int64(z.opts.AlignOffset))%a
		if aligned > z.raw {
			return int(aligned - z.raw)
		}
	}
	return target
}

func (z *mlzsWriter) Write(p []byte) (int, error) {
	if z.err != nil {
		return 0, z.err
	}
	n := len(p)
	for len(p) > 0 {
		if z.cut == 0 {
			z.cut = z.chunkTarget()
		}
		take := z.cut - len(z.buf)
		if take > len(p) {
			take = len(p)
		}
		z.buf = append(z.buf, p[:take]...)
		p = p[take:]
		if len(z.buf) == z.cut {
			if z.err = z.flushChunk(); z.err != nil {
				return n - len(p), z.err
			}
			z.cut = 0
		}
	}
	return n, nil
}

// writeHeader emits the container header once.
func (z *mlzsWriter) writeHeader() error {
	if z.wrote {
		return nil
	}
	hdr := append([]byte{}, mlzsMagic[:]...)
	hdr = append(hdr, mlzsVersion)
	hdr = binary.AppendUvarint(hdr, uint64(z.opts.ChunkSize))
	hdr = binary.AppendUvarint(hdr, uint64(z.opts.Align))
	hdr = binary.AppendUvarint(hdr, uint64(z.opts.AlignOffset))
	if _, err := z.w.Write(hdr); err != nil {
		return err
	}
	z.off = int64(len(hdr))
	z.wrote = true
	return nil
}

// flushChunk hands the filled chunk to the compression pool (or compresses
// it inline) and writes any frames that are ready, preserving chunk order.
func (z *mlzsWriter) flushChunk() error {
	if err := z.writeHeader(); err != nil {
		return err
	}
	if len(z.buf) == 0 {
		return nil
	}
	z.raw += int64(len(z.buf))
	if z.jobs == nil {
		payload, kind := z.enc.encodeBlock(z.buf, z.opts.Level)
		if err := z.writeFrame(int64(len(z.buf)), kind, payload); err != nil {
			return err
		}
		z.buf = z.buf[:0]
		return nil
	}
	j := &mlzsJob{raw: z.buf, done: make(chan struct{})}
	select {
	case z.buf = <-z.free:
		z.buf = z.buf[:0]
	default:
		z.buf = make([]byte, 0, z.opts.ChunkSize)
	}
	z.jobs <- j
	z.pending = append(z.pending, j)
	// Bound in-flight chunks: drain the oldest once the window is full.
	if len(z.pending) >= 2*z.opts.Workers {
		return z.drainOne()
	}
	return nil
}

// drainOne waits for the oldest in-flight chunk and writes its frame.
func (z *mlzsWriter) drainOne() error {
	j := z.pending[0]
	z.pending = z.pending[1:]
	<-j.done
	err := z.writeFrame(int64(len(j.raw)), j.kind, j.payload)
	select {
	case z.free <- j.raw:
	default:
	}
	return err
}

// writeFrame emits one chunk frame and records its trailer entry.
func (z *mlzsWriter) writeFrame(rawLen int64, kind byte, payload []byte) error {
	z.index = append(z.index, mlzsChunkInfo{off: z.off, rawLen: rawLen})
	hdr := appendBlockHeader([]byte{mlzsChunkTag}, int(rawLen), kind, len(payload))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, mlzsCastagnoli))
	if _, err := z.w.Write(hdr); err != nil {
		return err
	}
	if _, err := z.w.Write(payload); err != nil {
		return err
	}
	z.off += int64(len(hdr)) + int64(len(payload))
	return nil
}

// Close flushes the final chunk, drains the pool, and writes the end tag,
// index trailer and footer.
func (z *mlzsWriter) Close() error {
	if z.err != nil {
		return z.err
	}
	fail := func(err error) error {
		z.err = err
		z.stopWorkers()
		return err
	}
	// flushChunk writes the header first, so an empty stream still gets
	// a valid container.
	if err := z.flushChunk(); err != nil {
		return fail(err)
	}
	for len(z.pending) > 0 {
		if err := z.drainOne(); err != nil {
			return fail(err)
		}
	}
	z.stopWorkers()
	if _, err := z.w.Write([]byte{mlzsEndTag}); err != nil {
		return fail(err)
	}
	trailer := binary.AppendUvarint(nil, uint64(len(z.index)))
	prev := int64(0)
	for _, ci := range z.index {
		trailer = binary.AppendUvarint(trailer, uint64(ci.off-prev))
		prev = ci.off
		trailer = binary.AppendUvarint(trailer, uint64(ci.rawLen))
	}
	if _, err := z.w.Write(trailer); err != nil {
		return fail(err)
	}
	var footer [mlzsFooterSize]byte
	binary.LittleEndian.PutUint32(footer[0:4], uint32(len(trailer)))
	binary.LittleEndian.PutUint32(footer[4:8], crc32.Checksum(trailer, mlzsCastagnoli))
	copy(footer[8:], mlzsEndMagic[:])
	if _, err := z.w.Write(footer[:]); err != nil {
		return fail(err)
	}
	z.err = errors.New("compress: writer closed")
	return nil
}

func (z *mlzsWriter) stopWorkers() {
	if z.jobs != nil {
		// Unblock the workers; frames already handed out are drained first
		// by Close, and on error paths the payloads are simply discarded.
		for _, j := range z.pending {
			<-j.done
		}
		z.pending = nil
		close(z.jobs)
		z.jobs = nil
	}
}

// mlzsHeader is the decoded container header.
type mlzsHeader struct {
	chunkSize int64
	align     int64
	alignOff  int64
	length    int64 // encoded header length in bytes
}

// countingByteSource tracks how many bytes were consumed, so header and
// frame offsets can be recovered from a pure stream scan.
type countingByteSource struct {
	r byteSource
	n int64
}

func (c *countingByteSource) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingByteSource) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// parseMLZSHeader consumes and validates the container header, including the
// 4-byte magic.
func parseMLZSHeader(r *countingByteSource) (mlzsHeader, error) {
	if err := readMagic(r, mlzsMagic, "MLZS"); err != nil {
		return mlzsHeader{}, err
	}
	version, err := r.ReadByte()
	if err != nil {
		return mlzsHeader{}, fmt.Errorf("compress: MLZS header: %w", faults.ClassifyRead(err))
	}
	if version != mlzsVersion {
		return mlzsHeader{}, fmt.Errorf("compress: unsupported MLZS version %d (want %d): %w", version, mlzsVersion, faults.ErrCorrupt)
	}
	var h mlzsHeader
	fields := []*int64{&h.chunkSize, &h.align, &h.alignOff}
	for _, f := range fields {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return mlzsHeader{}, fmt.Errorf("compress: MLZS header: %w", faults.ClassifyRead(err))
		}
		if v > mlzBlockSize {
			return mlzsHeader{}, fmt.Errorf("compress: MLZS header field %d exceeds %d: %w", v, mlzBlockSize, faults.ErrLimit)
		}
		*f = int64(v)
	}
	if h.chunkSize == 0 {
		return mlzsHeader{}, fmt.Errorf("compress: MLZS header declares zero chunk size: %w", faults.ErrCorrupt)
	}
	h.length = r.n
	return h, nil
}

// readMLZSFrameHeader parses the next chunk frame header, or returns
// io.EOF at the 0x00 end tag.
func readMLZSFrameHeader(r byteSource) (blockHeader, error) {
	tag, err := r.ReadByte()
	switch {
	case err == io.EOF:
		return blockHeader{}, fmt.Errorf("container ends without terminator: %w", faults.ErrTruncated)
	case err != nil:
		return blockHeader{}, fmt.Errorf("header: %w", faults.ClassifyRead(err))
	case tag == mlzsEndTag:
		return blockHeader{}, io.EOF
	case tag != mlzsChunkTag:
		return blockHeader{}, fmt.Errorf("bad frame tag %#02x: %w", tag, faults.ErrCorrupt)
	}
	rawLen, err := binary.ReadUvarint(r)
	if err != nil {
		return blockHeader{}, fmt.Errorf("header: %w", faults.ClassifyRead(err))
	}
	h, err := readBlockHeader(r, rawLen)
	if err != nil {
		return h, err
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return h, fmt.Errorf("header: %w", faults.ClassifyRead(err))
	}
	h.crc, h.hasCRC = binary.LittleEndian.Uint32(crcBuf[:]), true
	return h, nil
}

// nextMLZSChunk parses the frame header of chunk number chunk. At the end
// tag it checks the trailer's chunk count: a header or frame misread can
// land on a 0x00 byte, and the count tells that from the real end tag.
func nextMLZSChunk(r byteSource, chunk int) (blockHeader, error) {
	h, err := readMLZSFrameHeader(r)
	if err != io.EOF {
		return h, err
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("index count: %w", faults.ClassifyRead(err))
	}
	if count != uint64(chunk) {
		return h, fmt.Errorf("container ends after %d chunks, its index lists %d: %w", chunk, count, faults.ErrCorrupt)
	}
	return h, io.EOF
}

// NewMLZSReader returns a Reader decompressing an MLZS container from r,
// one chunk at a time on the Read caller. The 4-byte magic must not have
// been consumed yet.
func NewMLZSReader(r io.Reader) (io.Reader, error) {
	src := asByteSource(r)
	if _, err := parseMLZSHeader(&countingByteSource{r: src}); err != nil {
		return nil, err
	}
	return &blockReader{r: src, unit: "MLZS chunk", next: nextMLZSChunk}, nil
}

// MLZSChunk locates one chunk of a container.
type MLZSChunk struct {
	// Off is the file offset of the chunk's frame.
	Off int64
	// RawOff and RawLen place the chunk in the decompressed stream.
	RawOff int64
	RawLen int64
}

// MLZSIndex is the decoded chunk table of a container.
type MLZSIndex struct {
	// ChunkSize, Align and AlignOffset echo the writer's options from the
	// container header.
	ChunkSize   int64
	Align       int64
	AlignOffset int64
	// HeaderLen is the encoded header length (the offset of chunk 0's frame).
	HeaderLen int64
	Chunks    []MLZSChunk
	// RawSize is the total decompressed size.
	RawSize int64
}

// NumChunks returns the number of chunks in the container.
func (ix *MLZSIndex) NumChunks() int { return len(ix.Chunks) }

// ReadMLZSIndex locates and decodes the index trailer of an MLZS container
// through the fixed footer at the end of the file. Damage anywhere on that
// path — missing footer, trailer CRC mismatch, implausible offsets — yields
// a typed error (never a wrong table); callers that can still stream fall
// back to ScanMLZSIndex or a plain sequential read.
func ReadMLZSIndex(ra io.ReaderAt, size int64) (*MLZSIndex, error) {
	if size < mlzsFooterSize+6 {
		return nil, fmt.Errorf("compress: MLZS index: %d-byte file cannot hold a footer: %w", size, faults.ErrTruncated)
	}
	var footer [mlzsFooterSize]byte
	if _, err := ra.ReadAt(footer[:], size-mlzsFooterSize); err != nil {
		return nil, fmt.Errorf("compress: MLZS index: reading footer: %w", err)
	}
	if [4]byte(footer[8:12]) != mlzsEndMagic {
		return nil, fmt.Errorf("compress: MLZS index: missing footer magic: %w", faults.ErrCorrupt)
	}
	trailerLen := int64(binary.LittleEndian.Uint32(footer[0:4]))
	wantCRC := binary.LittleEndian.Uint32(footer[4:8])
	if trailerLen > size-mlzsFooterSize {
		return nil, fmt.Errorf("compress: MLZS index: trailer length %d exceeds file: %w", trailerLen, faults.ErrCorrupt)
	}
	trailer := make([]byte, trailerLen)
	if _, err := ra.ReadAt(trailer, size-mlzsFooterSize-trailerLen); err != nil {
		return nil, fmt.Errorf("compress: MLZS index: reading trailer: %w", err)
	}
	if got := crc32.Checksum(trailer, mlzsCastagnoli); got != wantCRC {
		return nil, fmt.Errorf("compress: MLZS index: trailer checksum mismatch (got %#08x, want %#08x): %w", got, wantCRC, faults.ErrCorrupt)
	}
	hdrBuf := make([]byte, 64)
	if n, err := ra.ReadAt(hdrBuf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("compress: MLZS index: reading header: %w", err)
	} else {
		hdrBuf = hdrBuf[:n]
	}
	cs := &countingByteSource{r: bytes.NewReader(hdrBuf)}
	h, err := parseMLZSHeader(cs)
	if err != nil {
		return nil, err
	}
	ix := &MLZSIndex{ChunkSize: h.chunkSize, Align: h.align, AlignOffset: h.alignOff, HeaderLen: h.length}
	tr := bytes.NewReader(trailer)
	count, err := binary.ReadUvarint(tr)
	if err != nil {
		return nil, fmt.Errorf("compress: MLZS index: %w", faults.ClassifyRead(err))
	}
	// Each chunk costs at least 7 frame bytes, so a count beyond the file
	// size is hostile; reject before allocating for it.
	if count > uint64(size) {
		return nil, fmt.Errorf("compress: MLZS index declares %d chunks in a %d-byte file: %w", count, size, faults.ErrLimit)
	}
	ix.Chunks = make([]MLZSChunk, 0, count)
	off, rawOff := int64(0), int64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, fmt.Errorf("compress: MLZS index: %w", faults.ClassifyRead(err))
		}
		rawLen, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, fmt.Errorf("compress: MLZS index: %w", faults.ClassifyRead(err))
		}
		off += int64(delta)
		if delta == 0 || off >= size || rawLen == 0 || rawLen > mlzBlockSize {
			return nil, fmt.Errorf("compress: MLZS index: implausible chunk %d (offset %d, raw %d): %w", i, off, rawLen, faults.ErrCorrupt)
		}
		ix.Chunks = append(ix.Chunks, MLZSChunk{Off: off, RawOff: rawOff, RawLen: int64(rawLen)})
		rawOff += int64(rawLen)
	}
	if tr.Len() != 0 {
		return nil, fmt.Errorf("compress: MLZS index: %d trailing trailer bytes: %w", tr.Len(), faults.ErrCorrupt)
	}
	ix.RawSize = rawOff
	return ix, nil
}

// ScanMLZSIndex rebuilds the chunk table by scanning frames sequentially,
// for containers whose trailer is damaged or still being written. Payloads
// are skipped, not decompressed or CRC-verified.
func ScanMLZSIndex(r io.Reader) (*MLZSIndex, error) {
	cs := &countingByteSource{r: asByteSource(r)}
	h, err := parseMLZSHeader(cs)
	if err != nil {
		return nil, err
	}
	ix := &MLZSIndex{ChunkSize: h.chunkSize, Align: h.align, AlignOffset: h.alignOff, HeaderLen: h.length}
	rawOff := int64(0)
	for chunk := 0; ; chunk++ {
		off := cs.n
		fr, err := readMLZSFrameHeader(cs)
		if err == io.EOF {
			ix.RawSize = rawOff
			return ix, nil
		}
		if err != nil {
			return nil, fmt.Errorf("compress: MLZS chunk %d: %w", chunk, err)
		}
		if _, err := io.CopyN(io.Discard, cs, fr.dataLen); err != nil {
			return nil, fmt.Errorf("compress: MLZS chunk %d payload: %w", chunk, faults.ErrTruncated)
		}
		ix.Chunks = append(ix.Chunks, MLZSChunk{Off: off, RawOff: rawOff, RawLen: fr.rawLen})
		rawOff += fr.rawLen
	}
}

// MLZSStat summarises a container file for tooling (mbptrace info).
type MLZSStat struct {
	Chunks         int
	ChunkSize      int64
	Align          int64
	AlignOffset    int64
	RawSize        int64
	CompressedSize int64
	// Indexed reports whether the trailer was intact; false means the stat
	// came from a sequential scan.
	Indexed bool
}

// StatMLZSFile reads the container summary of an MLZS file, falling back to
// a sequential frame scan when the index trailer is damaged.
func StatMLZSFile(path string) (*MLZSStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //mbpvet:ignore droppederr -- read side: nothing to lose on a read-only close
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	stat := &MLZSStat{CompressedSize: fi.Size()}
	ix, err := ReadMLZSIndex(f, fi.Size())
	if err != nil {
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			return nil, serr
		}
		ix, err = ScanMLZSIndex(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			return nil, err
		}
	} else {
		stat.Indexed = true
	}
	stat.Chunks = ix.NumChunks()
	stat.ChunkSize = ix.ChunkSize
	stat.Align = ix.Align
	stat.AlignOffset = ix.AlignOffset
	stat.RawSize = ix.RawSize
	return stat, nil
}
