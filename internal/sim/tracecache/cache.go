// Package tracecache is the shared decoded-trace cache behind the parallel
// sweep scheduler: when P predictors are scored over T traces, each trace is
// opened, decompressed and decoded once into pinned event batches and then
// simulated by many predictors concurrently, instead of being re-decoded P
// times.
//
// The cache is bounded by a byte budget with LRU eviction of idle entries.
// Traces whose decoded form cannot fit the budget are never pinned: callers
// receive a "too big" verdict and fall back to streaming re-decode through
// their own reader. Decoded entries are immutable and may be read by any
// number of workers at once; an entry is pinned (ineligible for eviction)
// while at least one worker holds it.
//
// Failure semantics mirror streaming the trace through its reader (see
// DESIGN.md):
//
//   - An entry records its terminal error exactly as a bp.BatchReader
//     would deliver it — io.EOF after a clean decode, or the typed fault
//     that ended the stream. Events decoded before the fault are kept, so a
//     limited run (sim.Config.SimInstructions) that would stop before the
//     corruption point still succeeds, byte-identically to streaming.
//   - A corrupt trace therefore poisons exactly the (trace, predictor)
//     cells that read past the corruption point — never other entries, and
//     never the cache itself.
//   - Transient open failures (not faults.Permanent) are reported to every
//     waiter of the in-flight load but are not cached: a later Acquire
//     retries the open. Permanent failures are cached so a 30-predictor
//     sweep does not re-decode a corrupt trace 30 times.
package tracecache

import (
	"context"
	"io"
	"runtime/debug"
	"strconv"
	"sync"
	"unsafe"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
)

// batchEvents matches the simulator's prefetch batch size: entries hold the
// decoded trace as a sequence of batches this long, ready to be handed to
// the batched simulation loop without copying.
const batchEvents = 4096

// eventBytes is the in-memory footprint charged per decoded event.
const eventBytes = int64(unsafe.Sizeof(bp.Event{}))

// OpenFunc opens the underlying trace stream for a cache load. It reports
// how many open attempts were made (≥ 1; retry logic belongs to the caller,
// the cache only records the count for failure accounting). A non-nil err
// is an open failure: if faults.Permanent(err) it is cached as the entry's
// terminal error, otherwise the entry is dropped so a later Acquire retries.
type OpenFunc func() (r bp.Reader, closer io.Closer, attempts int, err error)

// Stats is a snapshot of the cache counters, for logging and tests.
type Stats struct {
	// Entries and BytesUsed describe the current resident set.
	Entries   int
	BytesUsed int64
	// Hits counts Acquire calls served by an existing entry (including
	// waits on an in-flight load); Misses counts loads started.
	Hits   uint64
	Misses uint64
	// Coalesced counts the subset of Hits that joined another worker's
	// still-in-flight load instead of finding a completed entry
	// (single-flight sharing saved a redundant decode).
	Coalesced uint64
	// Evictions counts idle entries discarded to make room; TooBig counts
	// loads that exceeded the budget and fell back to streaming.
	Evictions uint64
	TooBig    uint64
}

// Cache is a bounded, concurrency-safe store of decoded traces keyed by
// trace name. The zero value is not usable; use New. A nil *Cache is valid
// and caches nothing (every Acquire yields a too-big verdict).
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	clock   uint64 // LRU timestamp source, advanced under mu
	entries map[string]*Entry
	stats   Stats
	col     *obs.Collector // nil when metrics are disabled
}

// New returns a cache bounded to budget bytes of decoded events. A budget
// ≤ 0 disables caching: every Acquire reports too-big and callers stream.
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	return &Cache{budget: budget, entries: make(map[string]*Entry)}
}

// Entry is one decoded trace, pinned from Acquire until Release. All fields
// are immutable once the load completes (the ready channel is closed), so
// any number of goroutines may read the batches concurrently.
type Entry struct {
	c     *Cache
	name  string
	ready chan struct{}

	// Guarded by c.mu.
	refs    int
	lastUse uint64
	bytes   int64

	// Written by the loader before close(ready), read-only afterwards.
	batches  [][]bp.Event
	err      error // terminal error: io.EOF after a clean decode
	attempts int
	tooBig   bool
	volatile bool // transient failure: not kept in the map
}

// Batches returns the decoded events, in trace order, split into the
// simulator's batch granularity. Valid only when TooBig is false. Callers
// must not modify the events and must not retain the slices past Release.
func (e *Entry) Batches() [][]bp.Event { return e.batches }

// Err returns the terminal error of the decode: io.EOF after a clean end
// of trace, or the typed fault (classified by the faults taxonomy) that
// ended it. The events of Batches remain valid either way.
func (e *Entry) Err() error { return e.err }

// TooBig reports that the trace was not pinned — its decoded form exceeds
// the cache budget (or caching is disabled) — and the caller must stream it
// through its own reader.
func (e *Entry) TooBig() bool { return e.tooBig }

// Attempts reports how many open attempts the load performed, for
// retry-aware failure accounting.
func (e *Entry) Attempts() int { return e.attempts }

// Bytes reports the budget bytes charged to this entry.
func (e *Entry) Bytes() int64 { return e.bytes }

// SetCollector mirrors the cache counters into col as they change, so a
// live progress reporter can read hit rates without polling Stats. Call it
// before the first Acquire; a nil col (the default) disables mirroring.
// Safe on a nil (disabled) cache.
func (c *Cache) SetCollector(col *obs.Collector) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.col = col
	c.mu.Unlock()
}

// collector returns the current metrics collector (nil when disabled).
func (c *Cache) collector() *obs.Collector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.col
}

// Acquire returns the decoded form of the named trace, loading it through
// open on first use. Concurrent Acquires of the same name share one load:
// the first caller decodes, the rest wait. The returned entry is pinned;
// the caller must Release it exactly once, even when Err reports a failure
// or TooBig is set. A non-nil error is returned only when ctx is cancelled
// while waiting for another goroutine's load.
func (c *Cache) Acquire(ctx context.Context, name string, open OpenFunc) (*Entry, error) {
	if c == nil {
		return disabledEntry(), nil
	}
	e, created, err := c.acquireEntry(ctx, name)
	if err != nil || !created {
		return e, err
	}
	e.load(ctx, open)
	return e, nil
}

// ChunkLoadFunc decodes one chunk of a trace for AcquireChunk, returning
// its events in order. On a decode failure the events preceding the fault
// are still returned (the "error after n" contract), so limited runs that
// stop before the corruption point replay byte-identically to streaming.
type ChunkLoadFunc func() ([]bp.Event, error)

// AcquireChunk is Acquire at chunk granularity: it returns the decoded form
// of one chunk of the named trace, loading it through load on first use.
// Each chunk is an independent cache entry — pinned, evicted, and poisoned
// on its own under the shared byte budget, with single-flight per chunk —
// so one huge trace no longer has to fit the budget whole, and damage to
// one chunk fails only the cells that read that chunk. The entry contract
// matches Acquire: the caller must Release exactly once; Err is io.EOF
// after a clean chunk decode or the typed fault that ended it; TooBig means
// the chunk must be decoded directly by the caller.
func (c *Cache) AcquireChunk(ctx context.Context, name string, chunk int, load ChunkLoadFunc) (*Entry, error) {
	if c == nil {
		return disabledEntry(), nil
	}
	// Trace names are file paths, which never contain NUL, so the composite
	// key cannot collide with a whole-trace entry or another chunk's.
	key := name + "\x00" + strconv.Itoa(chunk)
	e, created, err := c.acquireEntry(ctx, key)
	if err != nil || !created {
		return e, err
	}
	e.loadChunk(load)
	return e, nil
}

// disabledEntry is the verdict a nil (disabled) cache hands every caller.
func disabledEntry() *Entry {
	e := &Entry{ready: make(chan struct{}), attempts: 1, tooBig: true}
	close(e.ready)
	return e
}

// acquireEntry is the single-flight core shared by Acquire and
// AcquireChunk: it returns the pinned entry for key, reporting created when
// this caller owns the load (the entry's ready channel is still open and
// the caller must run a load* method, which publishes by closing it). When
// created is false the entry is complete or being loaded by someone else;
// a non-nil error means ctx was cancelled while waiting for that load.
func (c *Cache) acquireEntry(ctx context.Context, key string) (e *Entry, created bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.refs++
		c.stats.Hits++
		c.col.Ctr(obs.CtrCacheHits).Add(1)
		// A hit on an entry whose load has not published yet is a coalesce:
		// single-flight sharing spared this caller a redundant decode.
		select {
		case <-e.ready:
		default:
			c.stats.Coalesced++
			c.col.Ctr(obs.CtrCacheCoalesced).Add(1)
		}
		col := c.col
		c.mu.Unlock()
		tWait := col.Now()
		select {
		case <-e.ready:
			col.Stage(obs.StageCacheWait).Since(tWait)
			return e, false, nil
		case <-ctx.Done():
			col.Stage(obs.StageCacheWait).Since(tWait)
			c.Release(e)
			return nil, false, ctx.Err()
		}
	}
	e = &Entry{c: c, name: key, ready: make(chan struct{}), refs: 1}
	c.entries[key] = e
	c.stats.Misses++
	c.col.Ctr(obs.CtrCacheMisses).Add(1)
	c.mu.Unlock()
	return e, true, nil
}

// Release unpins an entry obtained from Acquire. Once an entry's last
// holder releases it, it becomes eligible for LRU eviction.
func (e *Entry) release() {
	if e.c == nil {
		return
	}
	e.c.mu.Lock()
	e.refs--
	e.c.clock++
	e.lastUse = e.c.clock
	e.c.mu.Unlock()
}

// Release unpins an entry obtained from Acquire. Safe on entries from a nil
// (disabled) cache.
func (c *Cache) Release(e *Entry) {
	if e != nil {
		e.release()
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.BytesUsed = c.used
	return s
}

// load opens and decodes the trace into e, then publishes the outcome by
// closing ready. It runs on the Acquire caller that created the entry.
func (e *Entry) load(ctx context.Context, open OpenFunc) {
	defer close(e.ready)
	r, closer, attempts, err := open()
	if attempts < 1 {
		attempts = 1
	}
	e.attempts = attempts
	if err != nil {
		e.fail(err, !faults.Permanent(err))
		return
	}
	if closer != nil {
		defer closer.Close() //mbpvet:ignore droppederr -- read side: a close failure cannot corrupt the already-decoded events
	}
	// Header-declared sizes let oversized traces skip the decode entirely.
	if s, ok := r.(bp.Sizer); ok {
		if n := s.TotalBranches(); n > 0 && int64(n)*eventBytes > e.c.budget {
			e.markTooBig(false)
			return
		}
	}
	col := e.c.collector()
	for {
		if cerr := ctx.Err(); cerr != nil {
			e.fail(cerr, true)
			return
		}
		buf := make([]bp.Event, batchEvents)
		tRead := col.Now()
		n, rerr := readBatchSafe(r, buf)
		readDur := col.Now().Sub(tRead)
		col.Stage(obs.StageRead).Add(readDur)
		col.Hist(obs.HistBatchReadNs).ObserveDuration(readDur)
		col.Ctr(obs.CtrBatches).Add(1)
		if n > 0 {
			ok, contention := e.c.reserve(e, int64(n)*eventBytes)
			if !ok {
				e.markTooBig(contention)
				return
			}
			e.batches = append(e.batches, buf[:n])
		}
		if rerr != nil {
			// Terminal: io.EOF for a clean decode, or a typed decode fault.
			// Decode faults are a property of the trace bytes — they will
			// not improve on a retry — so both outcomes are cached, along
			// with every event decoded before the fault.
			e.err = rerr
			return
		}
	}
}

// loadChunk decodes one chunk into e and publishes the outcome by closing
// ready. It runs on the AcquireChunk caller that created the entry. The
// failure semantics mirror load: a typed decode fault is cached together
// with the events preceding it (the fault poisons exactly this chunk), a
// transient failure is volatile so a later AcquireChunk retries, and a
// chunk that cannot fit the budget yields a too-big verdict.
func (e *Entry) loadChunk(load ChunkLoadFunc) {
	defer close(e.ready)
	e.attempts = 1
	evs, err := loadChunkSafe(load)
	if len(evs) > 0 {
		ok, contention := e.c.reserve(e, int64(len(evs))*eventBytes)
		if !ok {
			e.markTooBig(contention)
			return
		}
		// Split to the simulator's batch granularity so downstream batch
		// consumers see the same shape Acquire entries have.
		for off := 0; off < len(evs); off += batchEvents {
			end := off + batchEvents
			if end > len(evs) {
				end = len(evs)
			}
			e.batches = append(e.batches, evs[off:end])
		}
	}
	if err != nil {
		if !faults.Permanent(err) {
			e.fail(err, true)
			return
		}
		e.err = err
		return
	}
	e.err = io.EOF
}

// loadChunkSafe converts a chunk-decoder panic into a typed error, the same
// containment readBatchSafe applies to streaming decoders.
func loadChunkSafe(load ChunkLoadFunc) (evs []bp.Event, err error) {
	defer func() {
		if v := recover(); v != nil {
			evs = nil
			err = faults.NewPanicError(v, debug.Stack())
		}
	}()
	return load()
}

// readBatchSafe converts a decoder panic into a typed error, the same
// containment the simulator's prefetch pipeline applies.
func readBatchSafe(r bp.Reader, dst []bp.Event) (n int, err error) {
	defer func() {
		if v := recover(); v != nil {
			n = 0
			err = faults.NewPanicError(v, debug.Stack())
		}
	}()
	return bp.ReadBatch(r, dst)
}

// fail records err as the entry's terminal error and returns its budget
// bytes. volatile failures are removed from the map so a later Acquire
// retries the load; current waiters still observe the error.
func (e *Entry) fail(err error, volatile bool) {
	e.err = err
	e.volatile = volatile
	c := e.c
	c.mu.Lock()
	c.unreserveLocked(e)
	e.batches = nil
	if volatile {
		delete(c.entries, e.name)
	}
	c.mu.Unlock()
}

// markTooBig drops any partially decoded batches. A size verdict (the
// trace alone exceeds the budget) is cached: the entry stays in the map at
// zero bytes, so later Acquires learn instantly that the trace must be
// streamed. A contention verdict (the budget is full of entries pinned by
// concurrent holders) is volatile: the entry is removed so a later Acquire
// can try again once the pins drain.
func (e *Entry) markTooBig(contention bool) {
	e.tooBig = true
	e.volatile = contention
	c := e.c
	c.mu.Lock()
	c.unreserveLocked(e)
	e.batches = nil
	c.stats.TooBig++
	c.col.Ctr(obs.CtrCacheTooBig).Add(1)
	if contention {
		delete(c.entries, e.name)
	}
	c.mu.Unlock()
}

// unreserveLocked returns an entry's bytes to the budget. Caller holds c.mu.
func (c *Cache) unreserveLocked(e *Entry) {
	c.used -= e.bytes
	e.bytes = 0
	c.col.Ctr(obs.CtrCacheBytes).Store(uint64(c.used))
}

// reserve charges delta more bytes to a loading entry, evicting idle
// entries (least recently used first) as needed. ok is false when the
// entry cannot fit; contention distinguishes "every other resident byte is
// pinned by concurrent holders" from "the entry alone exceeds the budget".
func (c *Cache) reserve(e *Entry, delta int64) (ok, contention bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.bytes+delta > c.budget {
		return false, false
	}
	for c.used+delta > c.budget {
		victim := c.idleLRU()
		if victim == nil {
			return false, true
		}
		c.used -= victim.bytes
		delete(c.entries, victim.name)
		c.stats.Evictions++
		c.col.Ctr(obs.CtrCacheEvictions).Add(1)
	}
	c.used += delta
	e.bytes += delta
	c.col.Ctr(obs.CtrCacheBytes).Store(uint64(c.used))
	return true, false
}

// idleLRU returns the least recently used resident entry with no holders,
// or nil when everything is pinned. Caller holds c.mu.
func (c *Cache) idleLRU() *Entry {
	var victim *Entry
	for _, e := range c.entries {
		if e.refs > 0 || e.bytes == 0 {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	return victim
}

// Reader returns a fresh bp.BatchReader replaying the entry's decoded
// events followed by its terminal error, for consumers (like the
// comparison simulator) that want a stream rather than raw batches. Valid
// only while the entry is held and TooBig is false.
func (e *Entry) Reader() bp.Reader { return &replay{e: e} }

// replay streams a decoded entry with BatchReader semantics: events in
// order, then the sticky terminal error.
type replay struct {
	e   *Entry
	bi  int // current batch
	off int // offset within it
}

func (r *replay) Read() (bp.Event, error) {
	for r.bi < len(r.e.batches) {
		b := r.e.batches[r.bi]
		if r.off < len(b) {
			ev := b[r.off]
			r.off++
			return ev, nil
		}
		r.bi++
		r.off = 0
	}
	return bp.Event{}, r.terminal()
}

func (r *replay) ReadBatch(dst []bp.Event) (int, error) {
	n := 0
	for n < len(dst) && r.bi < len(r.e.batches) {
		b := r.e.batches[r.bi]
		copied := copy(dst[n:], b[r.off:])
		n += copied
		r.off += copied
		if r.off == len(b) {
			r.bi++
			r.off = 0
		}
	}
	if r.bi >= len(r.e.batches) && n < len(dst) {
		return n, r.terminal()
	}
	return n, nil
}

// terminal returns the entry's sticky end-of-stream error; a too-big or
// still-loading misuse degrades to io.EOF rather than panicking.
func (r *replay) terminal() error {
	if err := r.e.err; err != nil {
		return err
	}
	return io.EOF
}
