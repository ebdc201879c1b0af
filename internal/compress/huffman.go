package compress

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mbplib/internal/faults"
)

// The entropy stage of MLZ: an order-0 canonical Huffman coder applied to
// the LZ token payload of each block, which is what moves MLZ from the LZ4
// ratio class to the DEFLATE/zstd class. Two implementation techniques are
// borrowed from zstd's literal coder: a table-driven decoder that resolves
// up to two symbols per lookup, and a payload split into four independently
// encoded streams decoded in interleave — four shift-chains in flight keep
// the CPU pipeline busy where a single stream would serialise on the bit
// cursor. Together they are what keeps MLZ decompression well ahead of
// DEFLATE, the property the suite's trace distribution relies on (§IV).
//
// Encoded layout:
//
//	128 bytes  code lengths, 4 bits per symbol (0 = unused, max 12)
//	uvarint    number of encoded symbols n; streams hold k, k, k, n-3k
//	           symbols where k = ceil(n/4)
//	uvarint ×3 byte lengths of the first three streams
//	bytes      the four bitstreams, back to back (LSB-first codes)
const huffMaxLen = 12

// huffNumStreams is fixed by the format.
const huffNumStreams = 4

// huffEncode Huffman-codes payload. It returns nil and false when coding
// would not shrink the payload (e.g. near-uniform data).
func huffEncode(payload []byte, out []byte) ([]byte, bool) {
	if len(payload) == 0 {
		return nil, false
	}
	var freq [256]uint64
	for _, b := range payload {
		freq[b]++
	}
	lengths, ok := buildLengths(&freq)
	if !ok {
		return nil, false
	}
	codes := canonicalCodes(lengths)

	// Estimate the encoded size before committing.
	bits := uint64(0)
	for s, f := range freq {
		bits += f * uint64(lengths[s])
	}
	estimate := 128 + 16 + int(bits+7)/8
	if estimate >= len(payload) {
		return nil, false
	}

	out = out[:0]
	for i := 0; i < 256; i += 2 {
		out = append(out, byte(lengths[i])|byte(lengths[i+1])<<4)
	}
	out = binary.AppendUvarint(out, uint64(len(payload)))

	k := (len(payload) + huffNumStreams - 1) / huffNumStreams
	var streams [huffNumStreams][]byte
	scratch := make([]byte, 0, len(payload)/3+16)
	for s := 0; s < huffNumStreams; s++ {
		lo := s * k
		hi := lo + k
		if lo > len(payload) {
			lo = len(payload)
		}
		if hi > len(payload) {
			hi = len(payload)
		}
		scratch = encodeStream(payload[lo:hi], &lengths, &codes, scratch[:0])
		streams[s] = append([]byte(nil), scratch...)
	}
	for s := 0; s < huffNumStreams-1; s++ {
		out = binary.AppendUvarint(out, uint64(len(streams[s])))
	}
	for s := 0; s < huffNumStreams; s++ {
		out = append(out, streams[s]...)
	}
	return out, true
}

// encodeStream appends the LSB-first bitstream of symbols to out.
func encodeStream(symbols []byte, lengths *[256]uint8, codes *[256]uint16, out []byte) []byte {
	var acc uint64
	var n uint
	for _, b := range symbols {
		acc |= uint64(codes[b]) << n
		n += uint(lengths[b])
		for n >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			n -= 8
		}
	}
	if n > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// buildLengths computes code lengths for the frequency table, limited to
// huffMaxLen by frequency flattening.
func buildLengths(freq *[256]uint64) ([256]uint8, bool) {
	var lengths [256]uint8
	f := *freq
	for try := 0; try < 20; try++ {
		lengths = huffmanLengths(&f)
		max := uint8(0)
		used := 0
		for s := range lengths {
			if lengths[s] > max {
				max = lengths[s]
			}
			if lengths[s] > 0 {
				used++
			}
		}
		if used == 1 {
			// A single distinct byte: give it a 1-bit code.
			for s := range lengths {
				if lengths[s] > 0 || f[s] > 0 {
					lengths[s] = 1
				}
			}
			return lengths, true
		}
		if max <= huffMaxLen {
			return lengths, true
		}
		// Flatten the distribution and retry.
		for s := range f {
			if f[s] > 0 {
				f[s] = f[s]/2 + 1
			}
		}
	}
	return lengths, false
}

// huffmanLengths builds unrestricted Huffman code lengths with a simple
// sorted-merge construction (256 symbols, so efficiency is irrelevant).
func huffmanLengths(freq *[256]uint64) [256]uint8 {
	type node struct {
		weight      uint64
		symbol      int // -1 for internal
		left, right *node
	}
	var leaves []*node
	for s, f := range freq {
		if f > 0 {
			leaves = append(leaves, &node{weight: f, symbol: s})
		}
	}
	var lengths [256]uint8
	if len(leaves) == 0 {
		return lengths
	}
	if len(leaves) == 1 {
		lengths[leaves[0].symbol] = 1
		return lengths
	}
	nodes := append([]*node(nil), leaves...)
	for len(nodes) > 1 {
		sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].weight < nodes[j].weight })
		merged := &node{weight: nodes[0].weight + nodes[1].weight, symbol: -1, left: nodes[0], right: nodes[1]}
		nodes = append([]*node{merged}, nodes[2:]...)
	}
	var walk func(n *node, depth uint8)
	walk = func(n *node, depth uint8) {
		if n.symbol >= 0 {
			lengths[n.symbol] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(nodes[0], 0)
	return lengths
}

// canonicalCodes assigns canonical codes (bit-reversed for LSB-first I/O)
// by counting, as DEFLATE does: the first code of each length follows the
// codes of all shorter lengths, and symbols of one length take consecutive
// codes in symbol order. The count table covers every 4-bit length a
// header can carry; buildTables rejects those above huffMaxLen.
func canonicalCodes(lengths [256]uint8) [256]uint16 {
	var count, next [16]uint16
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0 // unused symbols take no code
	code := uint16(0)
	for l := 1; l < len(next); l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	var codes [256]uint16
	for s, l := range lengths {
		if l > 0 {
			codes[s] = reverseBits(next[l], l)
			next[l]++
		}
	}
	return codes
}

func reverseBits(v uint16, n uint8) uint16 {
	var r uint16
	for i := uint8(0); i < n; i++ {
		r = r<<1 | v&1
		v >>= 1
	}
	return r
}

var errHuffCorrupt = fmt.Errorf("corrupt Huffman coding: %w", faults.ErrCorrupt)

// huffDecoder holds reusable decode tables.
type huffDecoder struct {
	// table maps huffMaxLen low bits of the stream to (symbol<<4 | length).
	table []uint16
	// pair maps huffMaxLen low bits to up to two decoded symbols:
	// sym1 | sym2<<8 | consumedBits<<16 | numSyms<<24.
	pair []uint32
	out  []byte
}

// cursor is the decode state of one bitstream.
type cursor struct {
	stream []byte
	pos    int
	acc    uint64
	bits   uint
	out    []byte
	i      int
}

// refill tops the accumulator up to 56+ bits; returns false near the end of
// the stream, where the scalar tail path takes over.
func (c *cursor) refill() bool {
	if c.pos+8 > len(c.stream) {
		return false
	}
	if c.bits < 4*huffMaxLen {
		// Whole bytes only: the partially consumed byte is re-read
		// (idempotently) by the next refill.
		c.acc |= binary.LittleEndian.Uint64(c.stream[c.pos:]) << c.bits
		c.pos += int(63-c.bits) >> 3
		c.bits |= 56
	}
	return true
}

// decode reconstructs the LZ payload from a Huffman-coded block body.
func (d *huffDecoder) decode(data []byte) ([]byte, error) {
	if len(data) < 128+1 {
		return nil, errHuffCorrupt
	}
	var lengths [256]uint8
	for i := 0; i < 128; i++ {
		lengths[2*i] = data[i] & 0xf
		lengths[2*i+1] = data[i] >> 4
	}
	rest := data[128:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > mlzBlockSize*2 {
		return nil, errHuffCorrupt
	}
	rest = rest[n:]
	var streamLens [huffNumStreams - 1]int
	for s := range streamLens {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > uint64(len(rest)) {
			return nil, errHuffCorrupt
		}
		streamLens[s] = int(v)
		rest = rest[n:]
	}

	if err := d.buildTables(&lengths); err != nil {
		return nil, err
	}
	if cap(d.out) < int(count) {
		d.out = make([]byte, count)
	}
	out := d.out[:count]

	// Slice the four streams and their output regions.
	k := (int(count) + huffNumStreams - 1) / huffNumStreams
	var cs [huffNumStreams]cursor
	for s := 0; s < huffNumStreams; s++ {
		var sl int
		if s < huffNumStreams-1 {
			sl = streamLens[s]
		} else {
			sl = len(rest)
		}
		if sl > len(rest) {
			return nil, errHuffCorrupt
		}
		cs[s].stream, rest = rest[:sl], rest[sl:]
		lo := s * k
		hi := lo + k
		if lo > int(count) {
			lo = int(count)
		}
		if hi > int(count) {
			hi = int(count)
		}
		cs[s].out = out[lo:hi]
	}

	// Interleaved fast path: one pair-lookup per stream per round keeps
	// four independent shift-chains in flight.
	pair := d.pair
	for {
		ok := true
		for s := range cs {
			if cs[s].i+2 > len(cs[s].out) || !cs[s].refill() {
				ok = false
			}
		}
		if !ok {
			break
		}
		for r := 0; r < 2; r++ {
			for s := range cs {
				c := &cs[s]
				if c.i+2 > len(c.out) {
					continue
				}
				e := pair[c.acc&(1<<huffMaxLen-1)]
				if e == 0 {
					return nil, errHuffCorrupt
				}
				// Branchless emit: the second byte is speculative and is
				// overwritten when the entry held a single symbol.
				c.out[c.i] = byte(e)
				c.out[c.i+1] = byte(e >> 8)
				c.i += int(e >> 24)
				consumed := uint(e>>16) & 0xff
				c.acc >>= consumed
				c.bits -= consumed
			}
		}
	}
	// Scalar tails.
	for s := range cs {
		if err := d.finishStream(&cs[s]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// finishStream decodes the remaining symbols of one stream one at a time.
func (d *huffDecoder) finishStream(c *cursor) error {
	for ; c.i < len(c.out); c.i++ {
		for c.bits < huffMaxLen && c.pos < len(c.stream) {
			c.acc |= uint64(c.stream[c.pos]) << c.bits
			c.bits += 8
			c.pos++
		}
		e := d.table[c.acc&(1<<huffMaxLen-1)]
		l := uint(e & 0xf)
		if l == 0 || l > c.bits {
			return errHuffCorrupt
		}
		c.out[c.i] = byte(e >> 4)
		c.acc >>= l
		c.bits -= l
	}
	return nil
}

// buildTables fills the single-symbol and pair decode tables.
func (d *huffDecoder) buildTables(lengths *[256]uint8) error {
	codes := canonicalCodes(*lengths)
	if d.table == nil {
		d.table = make([]uint16, 1<<huffMaxLen)
		d.pair = make([]uint32, 1<<huffMaxLen)
	}
	for i := range d.table {
		d.table[i] = 0
	}
	for s := 0; s < 256; s++ {
		l := lengths[s]
		if l == 0 {
			continue
		}
		if l > huffMaxLen {
			return errHuffCorrupt
		}
		entry := uint16(s)<<4 | uint16(l)
		step := 1 << l
		for i := int(codes[s]); i < len(d.table); i += step {
			if d.table[i] != 0 {
				return errHuffCorrupt
			}
			d.table[i] = entry
		}
	}
	// Derive the pair table: for every pattern, decode one symbol and, when
	// the next code fits entirely in the remaining known bits, a second.
	for p := range d.pair {
		e1 := d.table[p]
		l1 := uint32(e1 & 0xf)
		if l1 == 0 {
			d.pair[p] = 0
			continue
		}
		entry := uint32(e1>>4) | l1<<16 | 1<<24
		if rest := uint(huffMaxLen) - uint(l1); rest > 0 {
			e2 := d.table[(uint(p)>>l1)&(1<<huffMaxLen-1)]
			if l2 := uint(e2 & 0xf); l2 > 0 && l2 <= rest {
				entry = uint32(e1>>4) | uint32(e2>>4)<<8 | (l1+uint32(l2))<<16 | 2<<24
			}
		}
		d.pair[p] = entry
	}
	return nil
}
