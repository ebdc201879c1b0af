// Package compress provides the trace compression layer of the suite.
//
// The paper distributes SBBT traces compressed with zstandard and keeps
// gzip support for the original CBP5 trace distribution (§IV, §VII-D).
// zstd is not part of the Go standard library, so this package implements
// MLZ, a from-scratch byte-oriented LZ77 block format in the LZ4/zstd
// family: much faster to decompress than DEFLATE and with a better ratio
// on the highly redundant SBBT packet stream. gzip is provided through
// compress/gzip. NewReader auto-detects the format from magic bytes, so
// simulators can open traces compressed either way (or not at all).
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mbplib/internal/faults"
)

// MLZ frame layout:
//
//	magic "MLZ1" (4 bytes)
//	repeated blocks:
//	    rawLen  uvarint   — decompressed size of the block (0 terminates)
//	    kind    1 byte    — 0 stored, 1 LZ token stream, 2 Huffman-coded
//	                        LZ token stream (see block.go)
//	    dataLen uvarint   — encoded size of the payload
//	    payload dataLen bytes
//
// Token stream (LZ4/zstd-style): a sequence of
//
//	token byte: high nibble = literal length, low nibble = match length - minMatch
//	            a nibble value of 15 is extended by additional bytes, each
//	            adding up to 255, terminated by a byte < 255
//	literal bytes
//	offset code, 1 byte (absent in the final sequence):
//	            0-2 reuse the 1st/2nd/3rd most recent distinct offset
//	            (zstd's repeat-offset codes: trace matches recur at the
//	            same distances, e.g. one loop iteration back, so most
//	            matches need no explicit offset at all)
//	            3 means a new offset follows as 3 little-endian bytes
//
// The final sequence of a block carries only literals (match nibble 0 and
// no offset bytes follow the literals when the stream ends). The repeat-
// offset history starts each block as {1, 2, 4}.
var mlzMagic = [4]byte{'M', 'L', 'Z', '1'}

const (
	// mlzBlockSize is the raw bytes per independently compressed block.
	// 4 MiB plays the role of zstd's large match window (the paper uses
	// level 22): branch traces are dominated by long-range repetition —
	// loops re-emitting identical packet runs — that a small window such
	// as gzip's 32 KiB cannot exploit (§IV, §VII-D).
	mlzBlockSize = 1 << 22
	mlzMinMatch  = 4
	mlzMaxOffset = mlzBlockSize - 1
)

// Level selects the effort of the MLZ match search.
type Level int

// Compression levels. LevelBest plays the role of zstd's maximum level in
// the paper (§IV): it is slower to compress but decompresses just as fast.
const (
	LevelFast Level = iota // greedy, single hash probe
	LevelBest              // hash chains with lazy matching
)

// mlzWriter implements io.WriteCloser, buffering input into blocks.
type mlzWriter struct {
	w     io.Writer
	level Level
	buf   []byte
	enc   mlzEncoder
	wrote bool
	err   error
}

// NewMLZWriter returns a WriteCloser that MLZ-compresses everything written
// to it into w. Close flushes the final block and the end-of-frame marker
// but does not close w.
func NewMLZWriter(w io.Writer, level Level) io.WriteCloser {
	// The block buffer grows on demand so small streams stay cheap.
	return &mlzWriter{w: w, level: level, buf: make([]byte, 0, 1<<16)}
}

func (z *mlzWriter) Write(p []byte) (int, error) {
	if z.err != nil {
		return 0, z.err
	}
	n := len(p)
	for len(p) > 0 {
		space := mlzBlockSize - len(z.buf)
		take := len(p)
		if take > space {
			take = space
		}
		z.buf = append(z.buf, p[:take]...)
		p = p[take:]
		if len(z.buf) == mlzBlockSize {
			if z.err = z.flushBlock(); z.err != nil {
				return n - len(p), z.err
			}
		}
	}
	return n, nil
}

func (z *mlzWriter) flushBlock() error {
	if !z.wrote {
		if _, err := z.w.Write(mlzMagic[:]); err != nil {
			return err
		}
		z.wrote = true
	}
	if len(z.buf) == 0 {
		return nil
	}
	payload, kind := z.enc.encodeBlock(z.buf, z.level)
	if _, err := z.w.Write(appendBlockHeader(nil, len(z.buf), kind, len(payload))); err != nil {
		return err
	}
	if _, err := z.w.Write(payload); err != nil {
		return err
	}
	z.buf = z.buf[:0]
	return nil
}

// Close flushes buffered data and writes the end-of-frame marker.
func (z *mlzWriter) Close() error {
	if z.err != nil {
		return z.err
	}
	// flushBlock writes the magic first, so an empty stream still gets a
	// valid frame.
	if err := z.flushBlock(); err != nil {
		z.err = err
		return err
	}
	if _, err := z.w.Write([]byte{0}); err != nil { // rawLen 0 terminates
		z.err = err
		return err
	}
	z.err = errors.New("compress: writer closed")
	return nil
}

// mlzEncoder holds reusable match-finding state.
type mlzEncoder struct {
	head []int32 // hash -> most recent position
	prev []int32 // position -> previous position with same hash
	out  []byte
	reps [3]int // repeat-offset history, most recent first
	huff []byte // Huffman coding of out (encodeBlock)
}

const (
	mlzHashBits = 17
	mlzHashLen  = 1 << mlzHashBits
)

func mlzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - mlzHashBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// encode compresses src into the encoder's reusable buffer and returns it.
// The returned slice is valid until the next call.
func (e *mlzEncoder) encode(src []byte, level Level) []byte {
	if e.head == nil {
		e.head = make([]int32, mlzHashLen)
	}
	if cap(e.prev) < len(src) {
		e.prev = make([]int32, len(src))
	}
	for i := range e.head {
		e.head[i] = -1
	}
	e.out = e.out[:0]
	e.reps = initialReps
	chainDepth := 1
	lazy := false
	if level == LevelBest {
		chainDepth = 128
		lazy = true
	}

	litStart := 0
	i := 0
	for i+mlzMinMatch <= len(src) {
		off, length := e.bestMatch(src, i, chainDepth)
		if length >= mlzMinMatch && lazy && i+1+mlzMinMatch <= len(src) {
			// Lazy matching: if starting one byte later yields a strictly
			// longer match, emit this byte as a literal instead.
			e.insert(src, i)
			off2, length2 := e.bestMatch(src, i+1, chainDepth)
			if length2 > length+1 {
				i++
				off, length = off2, length2
			} else {
				e.emit(src[litStart:i], off, length)
				for j := i + 1; j < i+length && j+mlzMinMatch <= len(src); j++ {
					e.insert(src, j)
				}
				i += length
				litStart = i
				continue
			}
		}
		if length >= mlzMinMatch {
			e.emit(src[litStart:i], off, length)
			for j := i; j < i+length && j+mlzMinMatch <= len(src); j++ {
				e.insert(src, j)
			}
			i += length
			litStart = i
		} else {
			e.insert(src, i)
			i++
		}
	}
	// Final literal-only sequence.
	e.emitFinal(src[litStart:])
	return e.out
}

// insert records position i in the match-finder structures.
func (e *mlzEncoder) insert(src []byte, i int) {
	h := mlzHash(load32(src, i))
	e.prev[i] = e.head[h]
	e.head[h] = int32(i)
}

// bestMatch picks between the hash-chain match and a match at one of the
// repeat offsets. A repeat-offset match within two bytes of the best chain
// match wins: its encoding costs one byte instead of four, the preference
// zstd's match finder applies.
func (e *mlzEncoder) bestMatch(src []byte, i, depth int) (offset, length int) {
	off, l := e.findMatch(src, i, depth)
	repOff, repLen := 0, 0
	for _, r := range e.reps {
		if r <= 0 || r > i {
			continue
		}
		if load32(src, i-r) != load32(src, i) {
			continue
		}
		rl := mlzMinMatch
		for i+rl < len(src) && src[i-r+rl] == src[i+rl] {
			rl++
		}
		if rl > repLen {
			repOff, repLen = r, rl
		}
	}
	if repLen >= mlzMinMatch && repLen+2 >= l {
		return repOff, repLen
	}
	return off, l
}

// findMatch searches for the longest match for the data at position i,
// probing up to depth chain entries. It returns the offset (i - matchPos)
// and length, or (0,0) when no acceptable match exists.
func (e *mlzEncoder) findMatch(src []byte, i, depth int) (offset, length int) {
	h := mlzHash(load32(src, i))
	cand := e.head[h]
	limit := len(src)
	for d := 0; d < depth && cand >= 0; d++ {
		c := int(cand)
		if i-c > mlzMaxOffset {
			break
		}
		if load32(src, c) == load32(src, i) {
			l := mlzMinMatch
			for i+l < limit && src[c+l] == src[i+l] {
				l++
			}
			if l > length {
				length, offset = l, i-c
			}
		}
		cand = e.prev[c]
	}
	if length < mlzMinMatch {
		return 0, 0
	}
	return offset, length
}

// initialReps seeds the repeat-offset history of every block.
var initialReps = [3]int{1, 2, 4}

// emit appends one sequence in the order the decoder consumes it: token,
// extended literal length, literals, extended match length, offset code
// (plus the offset bytes when it is not a repeat).
func (e *mlzEncoder) emit(lits []byte, offset, length int) {
	matchExtra := length - mlzMinMatch
	e.writeToken(len(lits), matchExtra)
	e.out = append(e.out, lits...)
	if matchExtra >= 15 {
		e.writeExtra(matchExtra - 15)
	}
	switch offset {
	case e.reps[0]:
		e.out = append(e.out, 0)
	case e.reps[1]:
		e.out = append(e.out, 1)
		e.reps[0], e.reps[1] = e.reps[1], e.reps[0]
	case e.reps[2]:
		e.out = append(e.out, 2)
		e.reps[0], e.reps[1], e.reps[2] = e.reps[2], e.reps[0], e.reps[1]
	default:
		e.out = append(e.out, 3, byte(offset), byte(offset>>8), byte(offset>>16))
		e.reps[0], e.reps[1], e.reps[2] = offset, e.reps[0], e.reps[1]
	}
}

// emitFinal appends the trailing literal-only sequence: no match extras and
// no offset bytes; the block payload ends right after the literals.
func (e *mlzEncoder) emitFinal(lits []byte) {
	if len(lits) == 0 {
		return
	}
	e.writeToken(len(lits), 0)
	e.out = append(e.out, lits...)
}

// writeToken appends the token byte and, when the literal length overflows
// its nibble, the extension bytes that immediately follow the token.
func (e *mlzEncoder) writeToken(litLen, matchExtra int) {
	litNib, matchNib := litLen, matchExtra
	if litNib > 15 {
		litNib = 15
	}
	if matchNib > 15 {
		matchNib = 15
	}
	e.out = append(e.out, byte(litNib<<4|matchNib))
	if litNib == 15 {
		e.writeExtra(litLen - 15)
	}
}

func (e *mlzEncoder) writeExtra(v int) {
	for v >= 255 {
		e.out = append(e.out, 255)
		v -= 255
	}
	e.out = append(e.out, byte(v))
}

// NewMLZReader returns a Reader that decompresses an MLZ frame from r. It
// assumes the 4-byte magic has NOT been consumed yet.
func NewMLZReader(r io.Reader) (io.Reader, error) {
	src := asByteSource(r)
	if err := readMagic(src, mlzMagic, "MLZ"); err != nil {
		return nil, err
	}
	return &blockReader{r: src, unit: "MLZ block", next: nextMLZBlock}, nil
}

// nextMLZBlock parses an MLZ block header; a raw length of 0 ends the
// frame.
func nextMLZBlock(r byteSource, _ int) (blockHeader, error) {
	rawLen, err := binary.ReadUvarint(r)
	switch {
	case err == io.EOF:
		return blockHeader{}, fmt.Errorf("frame ends without terminator: %w", faults.ErrTruncated)
	case err != nil:
		return blockHeader{}, fmt.Errorf("header: %w", faults.ClassifyRead(err))
	case rawLen == 0:
		return blockHeader{}, io.EOF
	}
	return readBlockHeader(r, rawLen)
}

var errMLZCorrupt = fmt.Errorf("corrupt token stream: %w", faults.ErrCorrupt)

// mlzDecodeBlock decompresses one token-stream payload into dst, which must
// have capacity for rawLen bytes. It returns dst grown to rawLen.
func mlzDecodeBlock(dst, payload []byte, rawLen int) ([]byte, error) {
	p := 0
	reps := initialReps
	for p < len(payload) {
		token := payload[p]
		p++
		litLen := int(token >> 4)
		matchExtra := int(token & 0xf)
		if litLen == 15 {
			n, np, err := mlzReadExtra(payload, p)
			if err != nil {
				return nil, err
			}
			litLen, p = 15+n, np
		}
		if litLen > 0 {
			if p+litLen > len(payload) || len(dst)+litLen > rawLen {
				return nil, errMLZCorrupt
			}
			dst = append(dst, payload[p:p+litLen]...)
			p += litLen
		}
		if p == len(payload) {
			// Final literal-only sequence.
			break
		}
		if matchExtra == 15 {
			n, np, err := mlzReadExtra(payload, p)
			if err != nil {
				return nil, err
			}
			matchExtra, p = 15+n, np
		}
		if p >= len(payload) {
			return nil, errMLZCorrupt
		}
		var offset int
		switch code := payload[p]; code {
		case 0:
			p++
			offset = reps[0]
		case 1:
			p++
			offset = reps[1]
			reps[0], reps[1] = reps[1], reps[0]
		case 2:
			p++
			offset = reps[2]
			reps[0], reps[1], reps[2] = reps[2], reps[0], reps[1]
		case 3:
			if p+4 > len(payload) {
				return nil, errMLZCorrupt
			}
			offset = int(payload[p+1]) | int(payload[p+2])<<8 | int(payload[p+3])<<16
			p += 4
			reps[0], reps[1], reps[2] = offset, reps[0], reps[1]
		default:
			return nil, errMLZCorrupt
		}
		matchLen := matchExtra + mlzMinMatch
		if offset == 0 || offset > len(dst) || len(dst)+matchLen > rawLen {
			return nil, errMLZCorrupt
		}
		start := len(dst) - offset
		if offset >= matchLen {
			// Non-overlapping: one bulk copy.
			dst = append(dst, dst[start:start+matchLen]...)
		} else {
			// Overlapping match (offset < matchLen): the run-length case.
			// Each copy may source bytes written by the previous one, so
			// the copied region doubles per pass — O(log(matchLen/offset))
			// copies instead of one append per byte.
			d := len(dst)
			if cap(dst) < d+matchLen {
				dst = append(dst, make([]byte, matchLen)...)
			} else {
				dst = dst[:d+matchLen]
			}
			for i := 0; i < matchLen; {
				i += copy(dst[d+i:d+matchLen], dst[start+i:d+i])
			}
		}
	}
	if len(dst) != rawLen {
		return nil, errMLZCorrupt
	}
	return dst, nil
}

func mlzReadExtra(payload []byte, p int) (n, newP int, err error) {
	for {
		if p >= len(payload) {
			return 0, 0, errMLZCorrupt
		}
		b := payload[p]
		p++
		n += int(b)
		if b < 255 {
			return n, p, nil
		}
	}
}
