package sim

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/obs"
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
	// returned. Must be safe for concurrent calls, the same i included;
	// a trace group calls it from one goroutine, one chunk at a time.
	DecodeChunk(i int) ([]bp.Event, error)
	// Close releases the trace. In-flight DecodeChunk calls must have
	// completed.
	Close() error
}

// chunkAppender is a ChunkedTrace that can decode a chunk into the
// caller's buffer, as internal/chunked's Trace can. A chunk load keeps only
// the records it interns from the events, so it decodes into a pooled
// buffer instead of a fresh slice per chunk.
type chunkAppender interface {
	AppendChunk(dst []bp.Event, i int) ([]bp.Event, error)
}

// chunkBufs recycles the event buffers of chunk loads.
var chunkBufs = sync.Pool{New: func() any { return new([]bp.Event) }}

// cachedStream reads a trace through the shared cache, one chunk at a
// time: it walks chunks 0…n−1, pinning each chunk's entry while its
// batches are consumed and releasing it before the next chunk loads, so a
// reading holds one chunk, not one trace. It pins the trace's static table
// for the whole walk, and a chunk's load interns it before the walk moves
// on, which keeps the table's ids in first-seen order (DESIGN.md, "Static
// tables"). A trace without chunked access (ct nil) is a trace of one
// chunk, its whole stream, cached under its own key (tracecache.Whole). A
// chunk the cache cannot pin is decoded and interned directly, with the
// same error-after-events contract. The end of a chunked trace follows the
// streaming SBBT reader: a branch count short of the header's promise is a
// truncation fault, surplus packets are delivered.
type cachedStream struct {
	ctx   context.Context
	cache *tracecache.Cache
	id    string                                    // the cache key of the trace: TraceSource.ID
	open  func() (bp.Reader, io.Closer, int, error) // the whole trace, with the policy's retries
	col   *obs.Collector
	ct    ChunkedTrace      // nil: the trace is read whole
	tab   *tracecache.Table // the trace's static table, pinned for the walk

	chunk int                   // next chunk to load
	read  uint64                // records delivered so far
	entry *tracecache.Entry     // pinned entry of the current chunk, if cached
	cur   [][]tracecache.Record // undelivered batches of the current chunk
	view  tracecache.View       // the table, as of the current chunk's load
	end   error                 // the current chunk's terminal error (io.EOF when clean)
}

// openStream opens the batch stream of one reading and loads its first
// chunk. Through the cache, a trace with eligible chunked access (indexed,
// aligned MLZS) is walked chunk by chunk on a handle the stream opens and
// closes; any other trace is read whole, and its reader reports any real
// damage with the canonical diagnostics. A whole trace the cache cannot
// pin (or any trace, with the cache off) is read afresh through a
// prefetching stream. A non-zero deadline bounds the open, its retries and
// the first load; later loads run under ctx alone. attempts counts the
// opens made, for failure accounting.
func openStream(ctx context.Context, deadline time.Time, drain <-chan struct{}, cache *tracecache.Cache, src TraceSource, policy Policy, col *obs.Collector) (s batchStream, attempts int, err error) {
	octx := ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		octx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	open := func() (bp.Reader, io.Closer, int, error) { return openWithRetry(octx, drain, src, policy) }
	if cache != nil {
		cs := &cachedStream{ctx: octx, cache: cache, id: src.ID(), open: open, col: col, tab: cache.Pin(src.ID())}
		if src.OpenChunked != nil {
			if ct, err := src.OpenChunked(); err == nil { // else not eligible: read whole
				cs.ct = ct
			}
		}
		attempts, err = cs.load()
		cs.ctx = ctx
		if err != nil {
			cs.close()
			return nil, attempts, err
		}
		if cs.entry != nil || cs.ct != nil {
			return cs, attempts, nil
		}
		cs.close()
	}
	r, closer, attempts, err := open()
	if err != nil {
		return nil, attempts, err
	}
	return newPrefetchStream(r, closer, col), attempts, nil
}

func (s *cachedStream) next() ([]tracecache.Record, tracecache.View, error) {
	for {
		if len(s.cur) > 0 {
			b := s.cur[0]
			s.cur = s.cur[1:]
			s.read += uint64(len(b))
			return b, s.view, nil
		}
		if s.end != io.EOF {
			return nil, tracecache.View{}, s.end
		}
		s.cache.Release(s.entry) // clean chunk: unpin before loading the next
		s.entry = nil
		if s.ct == nil || s.chunk >= s.ct.NumChunks() {
			if s.ct != nil && s.read < s.ct.TotalBranches() {
				return nil, tracecache.View{}, fmt.Errorf("sbbt: trace ends after %d of %d branches: %w", s.read, s.ct.TotalBranches(), bp.ErrTruncated)
			}
			return nil, tracecache.View{}, io.EOF
		}
		if _, err := s.load(); err != nil {
			return nil, tracecache.View{}, err
		}
	}
}

// load acquires the next chunk, decoding and interning a chunk the cache
// turns away directly, and reports the open attempts made. A whole trace
// the cache turns away leaves the stream without an entry.
func (s *cachedStream) load() (attempts int, err error) {
	i := s.chunk
	s.chunk++
	unit, load := tracecache.Whole, s.loadWhole
	var buf *[]bp.Event
	if s.ct != nil {
		buf = chunkBufs.Get().(*[]bp.Event)
		defer chunkBufs.Put(buf)
		unit, load = i, func(f *tracecache.Fill) (int, error) {
			evs, err := s.decodeChunk(i, buf) // its own open: no f.Opened
			f.Add(evs)
			return 1, err
		}
	}
	entry, err := s.cache.Acquire(s.ctx, s.col, s.id, unit, load)
	if err != nil {
		return 1, err // ctx ended while waiting on another reading's load
	}
	if !entry.TooBig() {
		s.entry, s.cur, s.end = entry, entry.Batches(), entry.Err()
		s.view = s.tab.View()
		return entry.Attempts(), nil
	}
	s.cache.Release(entry)
	if s.ct != nil {
		evs, err := s.decodeChunk(i, buf)
		recs, ierr := s.cache.Intern(s.col, s.tab, nil, evs)
		if ierr != nil {
			err = ierr
		}
		s.cur, s.end, s.view = tracecache.AppendBatches(nil, recs), err, s.tab.View()
		if err == nil {
			s.end = io.EOF
		}
	}
	return entry.Attempts(), nil
}

// loadWhole loads a trace read whole: the retrying open, then the
// batch-read loop, which stops at the stream's context.
func (s *cachedStream) loadWhole(f *tracecache.Fill) (int, error) {
	r, closer, attempts, err := s.open()
	if err != nil {
		return attempts, err
	}
	if closer != nil {
		defer closer.Close() //mbpvet:ignore droppederr -- read side: a close failure cannot corrupt the already-decoded events
	}
	if !f.Opened(r) {
		return attempts, nil // too big by its header: not decoded
	}
	buf := eventBufs.Get().(*[tracecache.BatchEvents]bp.Event)
	defer eventBufs.Put(buf)
	for {
		if err := s.ctx.Err(); err != nil {
			return attempts, err
		}
		var n int
		timedRead(s.col, func() { n, err = readBatchSafe(r, buf[:]) })
		if !f.Add(buf[:n]) || err != nil {
			return attempts, err
		}
	}
}

// decodeChunk decodes chunk i of a chunked trace, timed as one read. A
// chunkAppender decodes into *buf, which keeps the grown buffer; the events
// are then valid until buf is used again.
func (s *cachedStream) decodeChunk(i int, buf *[]bp.Event) (evs []bp.Event, err error) {
	timedRead(s.col, func() {
		if a, ok := s.ct.(chunkAppender); ok {
			evs, err = a.AppendChunk((*buf)[:0], i)
			*buf = evs
		} else {
			evs, err = s.ct.DecodeChunk(i)
		}
	})
	return evs, err
}

// close unpins the current chunk and the table, so a reading that stops
// early (instruction limit, drain, deadline) cannot leak a pin, and closes
// the chunked trace.
func (s *cachedStream) close() {
	s.cache.Release(s.entry)
	s.entry = nil
	s.cache.Unpin(s.tab)
	s.tab = nil
	if s.ct != nil {
		s.ct.Close() //mbpvet:ignore droppederr -- read side: a close failure cannot corrupt the already-consumed trace
	}
}
