// Package chunked opens SBBT traces stored in seekable MLZS containers for
// chunk-granular random access: each container chunk decodes to a whole
// number of trace packets independently of its neighbours, so chunks can be
// decoded in any order, in parallel, and cached or evicted one at a time.
//
// Eligibility is strict and checked once at Open: the container must carry
// the packet-alignment contract (chunk boundaries at raw offsets ≡
// sbbt.HeaderSize mod sbbt.PacketSize, established by `mbptrace recompress`
// and `mbpgen -formats mlzs`), an intact index trailer, and a plain
// (non-checksummed) SBBT header that passes the same plausibility rules the
// streaming reader enforces. Anything else — legacy stream-MLZ, a damaged
// trailer, a checksummed inner trace — returns an error, and callers fall
// back to the ordinary sequential streaming path, which handles all of
// those. Open never reads beyond chunk 0, so the fallback decision is cheap
// even on huge traces.
//
// Decoding runs the streaming reader's batch decode loop
// (sbbt.AppendPackets), so a damaged packet fails with exactly the error
// text and fault class the streaming reader would produce at the same
// offset, and damage confined to one chunk (a flipped payload byte, a bad
// per-chunk CRC) fails only that chunk's decode — the property the trace
// cache uses to poison single chunks instead of whole traces.
package chunked

import (
	"fmt"
	"os"

	"mbplib/internal/bp"
	"mbplib/internal/compress"
	"mbplib/internal/sbbt"
)

// Trace is an SBBT trace inside an eligible MLZS container. DecodeChunk and
// AppendChunk may be called from multiple goroutines concurrently; Close
// invalidates the trace.
type Trace struct {
	f   *os.File
	ix  *compress.MLZSIndex
	hdr sbbt.Header
}

// Open validates that path is an MLZS container eligible for chunk-granular
// SBBT decoding and returns the trace. The error distinguishes nothing for
// callers: any failure simply means "use the streaming path instead".
func Open(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := open(f)
	if err != nil {
		f.Close() //mbpvet:ignore droppederr -- error path: the eligibility failure is the one to report
		return nil, err
	}
	return t, nil
}

func open(f *os.File) (*Trace, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	ix, err := compress.ReadMLZSIndex(f, fi.Size())
	if err != nil {
		return nil, err
	}
	if !ix.Aligned(sbbt.PacketSize, sbbt.HeaderSize) {
		return nil, fmt.Errorf("chunked: container is not packet-aligned (align %d offset %d)", ix.Align, ix.AlignOffset)
	}
	if ix.NumChunks() == 0 {
		return nil, fmt.Errorf("chunked: container has no chunks")
	}
	if ix.Chunks[0].RawLen < sbbt.HeaderSize {
		return nil, fmt.Errorf("chunked: chunk 0 holds %d bytes, smaller than the %d-byte header", ix.Chunks[0].RawLen, sbbt.HeaderSize)
	}
	// The header lives at the start of chunk 0; decode just that chunk and
	// apply the same plausibility rules the streaming reader enforces, so
	// a hostile header is rejected here exactly as it would be there.
	dec := compress.NewMLZSChunkDecoder(f, ix)
	raw, err := dec.Decode(0)
	if err != nil {
		return nil, err
	}
	hdr, err := sbbt.ParseHeader(raw[:sbbt.HeaderSize])
	if err != nil {
		return nil, err
	}
	if hdr.Checksummed {
		// Checksummed streams interleave CRC trailers with the packets, so
		// chunk boundaries are not packet boundaries; the streaming reader
		// handles them.
		return nil, fmt.Errorf("chunked: checksummed SBBT traces stream only")
	}
	if err := hdr.CheckTotals(); err != nil {
		return nil, err
	}
	return &Trace{f: f, ix: ix, hdr: hdr}, nil
}

// Header returns the decoded SBBT header.
func (t *Trace) Header() sbbt.Header { return t.hdr }

// TotalBranches returns the branch count the header declares.
func (t *Trace) TotalBranches() uint64 { return t.hdr.TotalBranches }

// TotalInstructions returns the instruction count the header declares.
func (t *Trace) TotalInstructions() uint64 { return t.hdr.TotalInstructions }

// NumChunks returns the number of container chunks.
func (t *Trace) NumChunks() int { return t.ix.NumChunks() }

// DecodeChunk decompresses container chunk i and decodes its packets,
// returning the events it held in a new slice: AppendChunk(nil, i).
func (t *Trace) DecodeChunk(i int) ([]bp.Event, error) { return t.AppendChunk(nil, i) }

// AppendChunk decompresses container chunk i, decodes its packets and
// appends their events to dst, returning the extended slice, so a caller
// can decode chunk after chunk into one buffer. On a decode error the
// events preceding the failure are still appended — the same "error after
// n" contract the streaming batch reader follows — and the error carries
// the identical text and fault class the streaming path would report at
// that offset. Safe for concurrent use: each call owns its decompression
// state, and os.File ReadAt carries no shared cursor.
func (t *Trace) AppendChunk(dst []bp.Event, i int) ([]bp.Event, error) {
	raw, err := compress.NewMLZSChunkDecoder(t.f, t.ix).Decode(i)
	if err != nil {
		return dst, err
	}
	if i == 0 {
		raw = raw[sbbt.HeaderSize:]
	}
	dst, err = sbbt.AppendPackets(dst, raw)
	if err == nil && len(raw)%sbbt.PacketSize != 0 {
		// Only the final chunk can hold a partial packet; report it the
		// way the streaming reader does.
		err = fmt.Errorf("sbbt: trace ends mid-packet: %w", bp.ErrTruncated)
	}
	return dst, err
}

// Close releases the underlying file. In-flight DecodeChunk calls must have
// completed.
func (t *Trace) Close() error { return t.f.Close() }
