package sim

import (
	"context"
	"fmt"
	"io"

	"mbplib/internal/bp"
	"mbplib/internal/sim/tracecache"
)

// ChunkedTrace is a trace that supports chunk-granular random access —
// independent segments that decode in any order (see internal/chunked for
// the MLZS-backed implementation). The scheduler uses it to cache and evict
// one chunk at a time under the shared byte budget, so a single huge trace
// no longer competes for the budget whole.
type ChunkedTrace interface {
	// NumChunks returns the number of chunks.
	NumChunks() int
	// TotalBranches returns the branch count the trace header declares.
	TotalBranches() uint64
	// DecodeChunk decodes chunk i, returning its events in trace order.
	// On a decode failure the events preceding the fault are still
	// returned. Must be safe for concurrent calls with distinct i.
	DecodeChunk(i int) ([]bp.Event, error)
	// Close releases the trace. In-flight DecodeChunk calls must have
	// completed.
	Close() error
}

// chunkStream adapts a ChunkedTrace to the batchStream contract, pulling
// chunks through the shared cache one at a time: each chunk is pinned while
// its batches are consumed and released before the next chunk loads, so a
// cell's cache footprint is one chunk, not one trace. Chunk-level decode
// errors surface after the chunk's preceding events, and end-of-trace
// follows the exact semantics of the streaming SBBT reader: a branch count
// short of the header's promise is a truncation fault, surplus packets are
// delivered.
type chunkStream struct {
	ctx   context.Context
	cache *tracecache.Cache
	ct    ChunkedTrace
	name  string

	chunk int               // next chunk to load
	read  uint64            // events delivered so far
	entry *tracecache.Entry // pinned entry of the current chunk (nil between chunks)
	bi    int               // next batch of the current chunk
	cur   [][]bp.Event      // batches of the current chunk
	end   error             // the current chunk's terminal error (io.EOF when clean)
}

func (s *chunkStream) next() ([]bp.Event, error) {
	for {
		for s.bi < len(s.cur) {
			b := s.cur[s.bi]
			s.bi++
			if len(b) > 0 {
				s.read += uint64(len(b))
				return b, nil
			}
		}
		if s.end != nil {
			if s.end != io.EOF {
				err := s.end
				s.release()
				return nil, err
			}
			s.release() // clean chunk: unpin before loading the next
		}
		if s.chunk >= s.ct.NumChunks() {
			if s.read < s.ct.TotalBranches() {
				return nil, fmt.Errorf("sbbt: trace ends after %d of %d branches: %w", s.read, s.ct.TotalBranches(), bp.ErrTruncated)
			}
			return nil, io.EOF
		}
		chunk := s.chunk
		s.chunk++
		entry, err := s.cache.AcquireChunk(s.ctx, s.name, chunk, func() ([]bp.Event, error) {
			return s.ct.DecodeChunk(chunk)
		})
		if err != nil {
			return nil, err // ctx cancelled while waiting on another loader
		}
		if entry.TooBig() {
			// The chunk cannot be pinned (budget contention): decode it
			// directly, uncached, with the same error-after-events contract.
			s.cache.Release(entry)
			evs, derr := s.ct.DecodeChunk(chunk)
			s.cur, s.bi = splitBatches(evs), 0
			s.end = derr
			if s.end == nil {
				s.end = io.EOF
			}
			continue
		}
		s.entry = entry
		s.cur, s.bi = entry.Batches(), 0
		s.end = entry.Err()
	}
}

// close unpins the in-flight chunk and closes the trace, so a cell that
// stops early (instruction limit, drain, deadline) cannot leak a pin.
func (s *chunkStream) close() {
	s.release()
	s.ct.Close() //mbpvet:ignore droppederr -- read side: a close failure cannot corrupt the already-consumed trace
}

// release unpins the in-flight chunk entry.
func (s *chunkStream) release() {
	if s.entry != nil {
		s.cache.Release(s.entry)
		s.entry = nil
	}
	s.cur, s.bi, s.end = nil, 0, nil
}

// splitBatches cuts a chunk's events to the simulator's batch granularity,
// the shape cache entries and the streaming prefetcher both use.
func splitBatches(evs []bp.Event) [][]bp.Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([][]bp.Event, 0, (len(evs)+chunkBatchEvents-1)/chunkBatchEvents)
	for off := 0; off < len(evs); off += chunkBatchEvents {
		end := off + chunkBatchEvents
		if end > len(evs) {
			end = len(evs)
		}
		out = append(out, evs[off:end])
	}
	return out
}

// chunkBatchEvents matches tracecache's batch granularity.
const chunkBatchEvents = 4096
