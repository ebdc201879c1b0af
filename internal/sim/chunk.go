package sim

import (
	"context"
	"io"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/obs"
	"mbplib/internal/sim/tracecache"
)

// ChunkedTrace is a trace with chunk-granular random access: independent
// segments that decode in any order. The simulator does not use it: every
// reading streams its trace or replays it whole from the cache. It stays
// only as the type of TraceSource.OpenChunked.
type ChunkedTrace interface {
	// NumChunks returns the number of chunks.
	NumChunks() int
	// TotalBranches returns the branch count the trace header declares.
	TotalBranches() uint64
	// DecodeChunk decodes chunk i, returning its events in trace order.
	// On a decode failure the events preceding the fault are still
	// returned.
	DecodeChunk(i int) ([]bp.Event, error)
	// Close releases the trace.
	Close() error
}

// cachedStream replays a trace the cache holds whole: the entry's batches,
// with the view of its own static table. It keeps the entry pinned until
// close.
type cachedStream struct {
	cache *tracecache.Cache
	entry *tracecache.Entry
	cur   [][]tracecache.Record // undelivered batches
	end   error                 // the entry's terminal error (io.EOF when clean)
}

// openStream opens the batch stream of one reading. Through the cache, the
// trace is acquired whole and replayed; a trace the cache turns away (or
// any trace, with the cache off) is read afresh through a prefetching
// stream. A non-zero deadline bounds the open, its retries and the cache
// load. attempts counts the opens made, for failure accounting.
func openStream(ctx context.Context, deadline time.Time, drain <-chan struct{}, cache *tracecache.Cache, src TraceSource, policy Policy, col *obs.Collector) (s batchStream, attempts int, err error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	open := func() (bp.Reader, io.Closer, int, error) { return openWithRetry(ctx, drain, src, policy) }
	if cache != nil {
		entry, err := cache.Acquire(ctx, col, src.ID(), func(f *tracecache.Fill) (int, error) { return loadWhole(ctx, open, col, f) })
		if err != nil {
			return nil, 1, err // ctx ended while waiting on another reading's load
		}
		if !entry.TooBig() {
			return &cachedStream{cache: cache, entry: entry, cur: entry.Batches(), end: entry.Err()}, entry.Attempts(), nil
		}
		cache.Release(entry)
	}
	r, closer, attempts, err := open()
	if err != nil {
		return nil, attempts, err
	}
	return newPrefetchStream(r, closer, col), attempts, nil
}

func (s *cachedStream) next() ([]tracecache.Record, tracecache.View, error) {
	if len(s.cur) == 0 {
		return nil, tracecache.View{}, s.end
	}
	b := s.cur[0]
	s.cur = s.cur[1:]
	return b, s.entry.View(), nil
}

// close unpins the entry, so a reading that stops early (instruction limit,
// drain, deadline) cannot leak a pin.
func (s *cachedStream) close() {
	s.cache.Release(s.entry)
	s.entry = nil
}

// loadWhole loads a trace into the cache: the retrying open, then the
// batch-read loop, which stops at ctx.
func loadWhole(ctx context.Context, open func() (bp.Reader, io.Closer, int, error), col *obs.Collector, f *tracecache.Fill) (int, error) {
	r, closer, attempts, err := open()
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
		if err := ctx.Err(); err != nil {
			return attempts, err
		}
		var n int
		timedRead(col, func() { n, err = readBatchSafe(r, buf[:]) })
		if !f.Add(buf[:n]) || err != nil {
			return attempts, err
		}
	}
}
