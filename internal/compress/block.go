package compress

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"mbplib/internal/faults"
)

// The block codec both containers share. An MLZ frame and an MLZS
// container are each a sequence of blocks (MLZS calls them chunks), and
// every block is coded on its own as one of three kinds: encodeBlock
// chooses the kind, decodeBlock decodes it and blockReader streams the
// blocks back. Only the framing around a block differs between the two
// containers (see the layouts in mlz.go and mlzs.go).

// Block kinds.
const (
	blockStored  = 0 // the raw bytes
	blockLZ      = 1 // the LZ token stream of mlz.go
	blockHuffman = 2 // that token stream, Huffman-coded (huffman.go)
)

// encodeBlock compresses raw as one block, choosing the smallest of its LZ
// token stream, that stream Huffman-coded, and raw itself (stored). The
// payload aliases raw or the encoder's buffers and is valid until the next
// call.
func (e *mlzEncoder) encodeBlock(raw []byte, level Level) (payload []byte, kind byte) {
	payload, kind = e.encode(raw, level), blockLZ
	if huff, ok := huffEncode(payload, e.huff); ok {
		e.huff = huff
		payload, kind = huff, blockHuffman
	}
	if len(payload) >= len(raw) {
		return raw, blockStored
	}
	return payload, kind
}

// decodeBlock decodes one block payload of the given kind into dst, whose
// capacity is grown to rawLen as needed, and returns dst holding the
// rawLen decoded bytes.
func decodeBlock(huff *huffDecoder, dst []byte, kind byte, payload []byte, rawLen int) ([]byte, error) {
	if cap(dst) < rawLen {
		dst = make([]byte, 0, rawLen)
	}
	switch kind {
	case blockStored:
		if len(payload) != rawLen {
			return nil, fmt.Errorf("stored size mismatch: %w", faults.ErrCorrupt)
		}
		return append(dst[:0], payload...), nil
	case blockHuffman:
		lz, err := huff.decode(payload)
		if err != nil {
			return nil, err
		}
		payload = lz
	case blockLZ:
	default:
		return nil, fmt.Errorf("unknown block kind %d: %w", kind, faults.ErrCorrupt)
	}
	return mlzDecodeBlock(dst[:0], payload, rawLen)
}

// blockHeader is one parsed block header. MLZS chunks also carry a
// CRC-32C of the payload, which the reader checks before decoding.
type blockHeader struct {
	rawLen  int64
	kind    byte
	dataLen int64
	crc     uint32
	hasCRC  bool
}

// appendBlockHeader appends the fields every block header holds: the raw
// length, the kind and the payload length.
func appendBlockHeader(dst []byte, rawLen int, kind byte, dataLen int) []byte {
	dst = binary.AppendUvarint(dst, uint64(rawLen))
	dst = append(dst, kind)
	return binary.AppendUvarint(dst, uint64(dataLen))
}

// readBlockHeader checks a block's raw length, which the framing has read,
// and reads the kind and payload length that follow it.
func readBlockHeader(r io.ByteReader, rawLen uint64) (blockHeader, error) {
	if rawLen > mlzBlockSize {
		return blockHeader{}, fmt.Errorf("raw length %d exceeds %d: %w", rawLen, mlzBlockSize, faults.ErrLimit)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return blockHeader{}, fmt.Errorf("header: %w", faults.ClassifyRead(err))
	}
	dataLen, err := binary.ReadUvarint(r)
	if err != nil {
		return blockHeader{}, fmt.Errorf("header: %w", faults.ClassifyRead(err))
	}
	if dataLen > mlzBlockSize {
		return blockHeader{}, fmt.Errorf("data length %d exceeds %d: %w", dataLen, mlzBlockSize, faults.ErrLimit)
	}
	return blockHeader{rawLen: int64(rawLen), kind: kind, dataLen: int64(dataLen)}, nil
}

// byteSource is the reader shape the block reader and the frame parsers
// need.
type byteSource interface {
	io.Reader
	io.ByteReader
}

// asByteSource returns r itself when it can read single bytes, else r
// behind a trivial ReadByte.
func asByteSource(r io.Reader) byteSource {
	if br, ok := r.(byteSource); ok {
		return br
	}
	return &byteReader{r: r}
}

// byteReader adds a trivial ReadByte to an io.Reader.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

// readMagic consumes a container's 4-byte magic.
func readMagic(r io.Reader, want [4]byte, name string) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("compress: reading %s magic: %w", name, faults.ClassifyRead(err))
	}
	if magic != want {
		return fmt.Errorf("compress: not an %s stream: %w", name, faults.ErrCorrupt)
	}
	return nil
}

// blockReader is the one streaming decoder of both containers: one block
// at a time on the Read caller, no goroutines. next parses the framing in
// front of a block, the only part that differs between MLZ and MLZS, and
// returns io.EOF at the proper end of the stream. A block that fails to
// parse, check or decode ends the stream after the bytes of the blocks
// before it, with a typed error.
type blockReader struct {
	r       byteSource
	unit    string // "MLZ block" or "MLZS chunk", for error texts
	next    func(r byteSource, blocks int) (blockHeader, error)
	blocks  int // blocks decoded so far
	block   []byte
	pos     int
	payload []byte
	huff    huffDecoder
	err     error
}

func (z *blockReader) Read(p []byte) (int, error) {
	for z.pos == len(z.block) {
		if z.err != nil {
			return 0, z.err
		}
		z.err = z.nextBlock()
	}
	n := copy(p, z.block[z.pos:])
	z.pos += n
	return n, nil
}

// nextBlock reads the framing of the next block and decodes the block.
func (z *blockReader) nextBlock() error {
	h, err := z.next(z.r, z.blocks)
	if err == nil {
		err = z.decode(h)
	}
	if err != nil && err != io.EOF {
		err = fmt.Errorf("compress: %s %d: %w", z.unit, z.blocks, err)
	}
	return err
}

// decode reads the block's payload, checks its CRC when the framing
// carries one, and decodes it into z.block.
func (z *blockReader) decode(h blockHeader) error {
	if cap(z.payload) < int(h.dataLen) {
		z.payload = make([]byte, h.dataLen)
	}
	payload := z.payload[:h.dataLen]
	if _, err := io.ReadFull(z.r, payload); err != nil {
		return fmt.Errorf("payload: %w", faults.ClassifyRead(err))
	}
	if h.hasCRC {
		if got := crc32.Checksum(payload, mlzsCastagnoli); got != h.crc {
			return fmt.Errorf("checksum mismatch (got %#08x, want %#08x): %w", got, h.crc, faults.ErrCorrupt)
		}
	}
	block, err := decodeBlock(&z.huff, z.block, h.kind, payload, int(h.rawLen))
	if err != nil {
		return err
	}
	z.block, z.pos = block, 0
	z.blocks++
	return nil
}
