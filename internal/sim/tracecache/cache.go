// Package tracecache is a decoded-trace cache shared across sweeps: a
// trace read once is kept as pinned record batches, so a later reading of
// the same bytes — by the daemon's next job — skips decompression and
// decode.
//
// Every entry is one whole trace, and it owns the trace's static Table: the
// entry's load creates the table and interns the trace's (IP, target,
// opcode) tuples into it in first-seen order, and the entry holds 8-byte
// Records that index it instead of 32-byte bp.Events. The table's bytes are
// charged to the entry with its records, and leave the budget with it.
//
// The caller owns the cache: the daemon holds one for its whole life, so a
// job over traces an earlier job read decodes nothing. Entries are keyed by
// content — the caller passes the trace's digest when it has one, its path
// otherwise — so a trace file rewritten between two sweeps gets a new key
// and never replays stale events. Metrics go to the collector passed with
// each Acquire: a sweep's snapshot counts only its own hits, misses,
// coalesces and waits, while the resident-bytes gauge reports the cache as
// a whole.
//
// The cache is bounded by a byte budget with LRU eviction of idle entries.
// A trace whose decoded form cannot fit the budget is never pinned: its
// header (a bp.Sizer) turns it away before any decode where it can, and
// callers receive a "too big" verdict and stream the trace uncached.
// Decoded entries are immutable and may be read by any number of workers at
// once; an entry is pinned (ineligible for eviction) while at least one
// worker holds it.
//
// Failure semantics mirror streaming the trace through its reader (see
// DESIGN.md):
//
//   - An entry records its terminal error as a bp.BatchReader would
//     deliver it — io.EOF after a clean decode, or the error that ended the
//     stream — with every event decoded before it. A limited run
//     (sim.Config.SimInstructions) that stops before the fault succeeds,
//     byte-identically to streaming.
//   - Transient failures (an open failing outside the faults taxonomy, or
//     the loader's context ending) reach every waiter of the load but are
//     not cached. Any other error, including every error after a
//     successful open, is cached so later readings do not re-decode a
//     damaged trace.
package tracecache

import (
	"context"
	"errors"
	"io"
	"runtime/debug"
	"sync"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
)

// BatchEvents is the simulator's batch size: entries hold decoded records
// in batches at most this long, and the streaming prefetcher reads batches
// this long, so a cell sees one shape either way. At 8 bytes per record a
// batch is 32 KiB — large enough to amortise the channel handoff and the
// batch-boundary checks over thousands of branches, small enough to stay
// cache-resident.
const BatchEvents = 4096

// LoadFunc decodes a trace for Acquire. It opens the trace, calls f.Opened,
// hands the events to f.Add in trace order (Add interns them into the
// entry's table) and returns the open attempts it made (≥ 1) and the
// trace's terminal error: nil or io.EOF after a clean decode, otherwise the
// error that ended it, after every event decoded before it was added. Once
// f.Opened or f.Add reports false the loader returns at once.
type LoadFunc func(f *Fill) (attempts int, err error)

// Stats is a snapshot of the cache counters, for logging and tests.
type Stats struct {
	// Entries and BytesUsed describe the current resident set; BytesUsed
	// counts the entries' records and tables.
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

// Cache is a bounded, concurrency-safe store of decoded traces. The zero
// value is not usable; use New.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	clock   uint64            // LRU timestamp source, advanced under mu
	entries map[string]*Entry // by trace id
	stats   Stats
}

// New returns a cache bounded to budget bytes of decoded records and static
// tables. A budget ≤ 0 returns nil, meaning no cache: callers check for it
// and stream.
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
	id    string
	ready chan struct{}

	// Guarded by c.mu.
	refs    int
	lastUse uint64
	bytes   int64

	// Written by the loader before close(ready), read-only afterwards.
	batches  [][]Record
	view     View  // the entry's own table, which the batches index
	err      error // terminal error: io.EOF after a clean decode
	attempts int
	tooBig   bool
	volatile bool // transient failure: not kept in the map
}

// Batches returns the decoded records, in trace order, split into batches
// of at most BatchEvents records. Their ids index View. Valid only when
// TooBig is false. Callers must not modify the records and must not retain
// the slices past Release.
func (e *Entry) Batches() [][]Record { return e.batches }

// View returns the entry's static table, which covers every record of
// Batches. Valid only when TooBig is false, and only until Release.
func (e *Entry) View() View { return e.view }

// Err returns the terminal error of the decode: io.EOF after a clean end
// of the trace, or the error that ended it. The events of Batches remain
// valid either way.
func (e *Entry) Err() error { return e.err }

// TooBig reports that the trace was not pinned — its decoded form exceeds
// the cache budget, or the budget is pinned by other holders — and the
// caller must read it uncached.
func (e *Entry) TooBig() bool { return e.tooBig }

// Attempts reports how many open attempts the load performed, for
// retry-aware failure accounting.
func (e *Entry) Attempts() int { return e.attempts }

// Acquire returns the decoded form of the trace identified by id, loading
// it through load on first use. id is the trace's content digest when the
// caller has one, so equal bytes share entries and rewritten bytes never
// match; otherwise its path. Concurrent Acquires of the same trace share
// one load: the first caller decodes, the rest wait. A waiter whose shared
// load was abandoned because the loading caller's context ended, while its
// own ctx is live, loads the trace itself. The caller's hits, misses,
// coalesces, waits and (for a load it runs) evictions and too-big verdicts
// are counted into col, which may be nil. The returned entry is pinned; the
// caller must Release it exactly once, even when Err reports a failure or
// TooBig is set. A non-nil error is returned only when ctx ends while
// waiting for another goroutine's load.
func (c *Cache) Acquire(ctx context.Context, col *obs.Collector, id string, load LoadFunc) (*Entry, error) {
	for {
		c.mu.Lock()
		col.Ctr(obs.CtrCacheBytes).Store(uint64(c.used))
		e, ok := c.entries[id]
		if !ok {
			e = &Entry{c: c, id: id, ready: make(chan struct{}), refs: 1}
			c.entries[id] = e
			c.stats.Misses++
			col.Ctr(obs.CtrCacheMisses).Add(1)
			c.mu.Unlock()
			e.load(load, col)
			return e, nil
		}
		e.refs++
		c.stats.Hits++
		col.Ctr(obs.CtrCacheHits).Add(1)
		// A hit on an entry whose load has not published yet is a coalesce:
		// single-flight sharing spared this caller a redundant decode.
		select {
		case <-e.ready:
		default:
			c.stats.Coalesced++
			col.Ctr(obs.CtrCacheCoalesced).Add(1)
		}
		c.mu.Unlock()
		tWait := col.Now()
		select {
		case <-e.ready:
			col.Stage(obs.StageCacheWait).Since(tWait)
		case <-ctx.Done():
			col.Stage(obs.StageCacheWait).Since(tWait)
			c.Release(e)
			return nil, ctx.Err()
		}
		if !e.volatile || !isContextErr(e.err) || ctx.Err() != nil {
			return e, nil
		}
		c.Release(e) // the loader's context ended, not ours: load it again
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Release unpins an entry obtained from Acquire. Once an entry's last
// holder releases it, it becomes eligible for LRU eviction. Safe on a nil
// entry.
func (c *Cache) Release(e *Entry) {
	if e == nil {
		return
	}
	c.mu.Lock()
	e.refs--
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.BytesUsed = c.used
	return s
}

// Fill is the cache side of one load: the loader hands it the trace's
// events.
type Fill struct {
	e       *Entry
	col     *obs.Collector // the loading caller's metrics
	tab     *Table         // the entry's table, created by the load
	charged int64          // the table's bytes charged to the entry so far
	opened  bool           // later errors are the bytes', whatever their class
	err     error          // an event Add could not intern, ending the trace
}

// Opened tells the cache that the loader opened r: an error that ends the
// decode from here on is a property of the bytes, cached with the events
// before it. It reports false when r's header (a bp.Sizer) declares more
// records than the budget holds, so the trace is turned away undecoded;
// that size verdict is cached.
func (f *Fill) Opened(r bp.Reader) bool {
	f.opened = true
	if sz, ok := r.(bp.Sizer); ok && int64(sz.TotalBranches())*recordBytes > f.e.c.budget {
		f.e.tooBig = true
		return false
	}
	return true
}

// Add interns evs into the entry's table and charges their records, and
// the table's growth, to the entry, which keeps the records in batches of
// at most BatchEvents; evs are not retained. Add reports false once the
// trace cannot be pinned — it alone exceeds the budget, or every other
// resident byte is pinned by concurrent holders — or an event cannot be
// interned, which ends the trace with that error after the records before
// it; the loader must then stop.
func (f *Fill) Add(evs []bp.Event) bool {
	e := f.e
	if e.tooBig || f.err != nil {
		return false
	}
	if len(evs) == 0 {
		return true
	}
	recs, err := f.tab.Intern(make([]Record, 0, len(evs)), evs)
	size := f.tab.Size()
	if ok, contention := e.c.reserve(e, int64(len(recs))*recordBytes+size-f.charged, f.col); !ok {
		e.tooBig, e.volatile = true, contention
		return false
	}
	f.charged = size
	// Batches of at most BatchEvents records: the one shape a cell reads,
	// cached or not.
	for len(recs) > BatchEvents {
		e.batches = append(e.batches, recs[:BatchEvents])
		recs = recs[BatchEvents:]
	}
	if len(recs) > 0 {
		e.batches = append(e.batches, recs)
	}
	f.err = err
	return err == nil
}

// load runs the loader into e and publishes the outcome by closing ready.
// It runs on the Acquire caller that created the entry, whose metrics go to
// col, and it is the one place a load's outcome is judged.
func (e *Entry) load(load LoadFunc, col *obs.Collector) {
	defer close(e.ready)
	f := &Fill{e: e, col: col, tab: NewTable()}
	attempts, err := loadSafe(load, f)
	e.view = f.tab.View()
	e.attempts = max(attempts, 1)
	if f.err != nil {
		err = f.err // the loader stopped at the event Add refused
	}
	switch {
	case e.tooBig:
		// Opened or Add turned the trace away and the loader stopped.
	case err == nil || err == io.EOF:
		e.err = io.EOF
	case !isContextErr(err) && (f.opened || faults.Permanent(err)):
		// A fault of the bytes (a classified fault, or any error after the
		// open, such as a cut gzip stream's io.ErrUnexpectedEOF) will not
		// improve on a retry: it is cached with every event before it.
		e.err = err
	default:
		// Transient, or the loader's context ended: reported to the
		// current waiters, not cached.
		e.err, e.volatile = err, true
	}
	if e.tooBig || e.volatile {
		e.drop(col)
	}
}

// loadSafe converts a loader panic into a typed error, the same
// containment the simulator applies to predictor and reader panics.
func loadSafe(load LoadFunc, f *Fill) (attempts int, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = faults.NewPanicError(v, debug.Stack())
		}
	}()
	return load(f)
}

// drop discards the batches and the table of a turned-away or transiently
// failed entry and returns its budget bytes. A volatile entry — a transient
// failure, or a contention verdict while the budget is pinned by concurrent
// holders — also leaves the map, so a later Acquire loads again. A size
// verdict stays in the map at zero bytes, so later Acquires learn at once
// that the trace must be read uncached.
func (e *Entry) drop(col *obs.Collector) {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.used -= e.bytes
	e.bytes = 0
	e.batches, e.view = nil, View{}
	col.Ctr(obs.CtrCacheBytes).Store(uint64(c.used))
	if e.tooBig {
		c.stats.TooBig++
		col.Ctr(obs.CtrCacheTooBig).Add(1)
	}
	if e.volatile {
		delete(c.entries, e.id)
	}
}

// reserve charges delta more bytes to a loading entry e, evicting idle
// entries (least recently used first) as needed, and counts into the
// loading caller's col. ok is false when the entry cannot fit; contention
// distinguishes "every other resident byte is pinned by concurrent holders"
// from "the entry alone exceeds the budget".
func (c *Cache) reserve(e *Entry, delta int64, col *obs.Collector) (ok, contention bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { col.Ctr(obs.CtrCacheBytes).Store(uint64(c.used)) }()
	if e.bytes+delta > c.budget {
		return false, false
	}
	for c.used+delta > c.budget {
		victim := c.idleLRU()
		if victim == nil {
			return false, true
		}
		c.used -= victim.bytes
		delete(c.entries, victim.id)
		c.stats.Evictions++
		col.Ctr(obs.CtrCacheEvictions).Add(1)
	}
	c.used += delta
	e.bytes += delta
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
