package tracecache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/sbbt"
	"mbplib/internal/tracegen"
)

func testSpec(name string, branches uint64) tracegen.Spec {
	return tracegen.Spec{
		Name: name, Seed: 7, Branches: branches,
		Kernels: []tracegen.KernelSpec{{Kind: tracegen.Biased}, {Kind: tracegen.Loop}},
	}
}

// readerLoad is a whole-trace loader shaped like the simulator's: it opens
// a reader, lets a bp.Sizer header pre-judge the size, then hands batches to
// the cache until the reader ends, the cache turns the trace away or ctx
// ends.
func readerLoad(ctx context.Context, open func() (bp.Reader, error)) LoadFunc {
	return func(f *Fill) (int, error) {
		r, err := open()
		if err != nil {
			return 1, err
		}
		if !f.Opened(r) {
			return 1, nil
		}
		for {
			if err := ctx.Err(); err != nil {
				return 1, err
			}
			buf := make([]bp.Event, BatchEvents)
			n, err := bp.ReadBatch(r, buf)
			if !f.Add(buf[:n]) || err != nil {
				return 1, err
			}
		}
	}
}

// genLoad loads a synthetic trace whole, counting opens. The generator
// implements bp.Sizer, so the cache can pre-judge oversized traces.
func genLoad(t *testing.T, spec tracegen.Spec, opens *atomic.Int32) LoadFunc {
	t.Helper()
	return readerLoad(context.Background(), func() (bp.Reader, error) {
		if opens != nil {
			opens.Add(1)
		}
		return tracegen.New(spec)
	})
}

// hideSizer strips the Sizer interface so mid-decode budget enforcement is
// exercised instead of the header pre-check.
type hideSizer struct{ r bp.Reader }

func (h hideSizer) Read() (bp.Event, error) { return h.r.Read() }

// drain replays an entry's records through its table.
func drain(t *testing.T, e *Entry) []bp.Event {
	t.Helper()
	return replay(e.View(), e.Batches()...)
}

// replay turns records back into the events they were interned from.
func replay(v View, batches ...[]Record) []bp.Event {
	var evs []bp.Event
	for _, b := range batches {
		for _, r := range b {
			evs = append(evs, bp.Event{Branch: v.Statics[r.ID].Branch(r), InstrsSinceLastBranch: r.Gap()})
		}
	}
	return evs
}

// tableBytes is the footprint of a table holding evs: the charge, besides
// the records, of a cached trace of those events.
func tableBytes(t *testing.T, evs ...[]bp.Event) int64 {
	t.Helper()
	tab := NewTable()
	for _, e := range evs {
		if _, err := tab.Intern(nil, e); err != nil {
			t.Fatal(err)
		}
	}
	return tab.Size()
}

func readAll(t *testing.T, spec tracegen.Spec) []bp.Event {
	t.Helper()
	g, err := tracegen.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var evs []bp.Event
	for {
		ev, err := g.Read()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
}

func TestAcquireDecodesOnce(t *testing.T) {
	spec := testSpec("t0", 10_000)
	want := readAll(t, spec)
	c := New(1 << 20)
	var opens atomic.Int32
	load := genLoad(t, spec, &opens)
	ctx := context.Background()

	const readers = 8
	entries := make([]*Entry, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.Acquire(ctx, nil, "t0", load)
			if err != nil {
				t.Error(err)
				return
			}
			// Concurrent readers of one entry: walk every event.
			evs := drain(t, e)
			if len(evs) != len(want) {
				t.Errorf("reader %d saw %d events, want %d", i, len(evs), len(want))
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	if got := opens.Load(); got != 1 {
		t.Errorf("trace opened %d times, want 1 (single-flight)", got)
	}
	for i, e := range entries {
		if e == nil {
			t.Fatalf("reader %d got no entry", i)
		}
		if e.Err() != io.EOF {
			t.Errorf("entry err = %v, want io.EOF", e.Err())
		}
		if !equalEvents(drain(t, e), want) {
			t.Errorf("reader %d events differ from direct decode", i)
		}
		c.Release(e)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != readers-1 {
		t.Errorf("stats = %+v, want 1 miss, %d hits", st, readers-1)
	}
	if wantBytes := int64(len(want))*recordBytes + tableBytes(t, want); st.Entries != 1 || st.BytesUsed != wantBytes {
		t.Errorf("stats = %+v, want 1 entry of %d bytes with its table", st, wantBytes)
	}
}

func equalEvents(a, b []bp.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvictionUnderTinyBudget(t *testing.T) {
	const branches = 2000
	// Budget fits one decoded trace (2000 records and a table) but not two.
	tab := tableBytes(t, readAll(t, testSpec("a", branches)))
	budget := 3000*recordBytes + 2*tab
	c := New(budget)
	ctx := context.Background()
	names := []string{"a", "b", "c"}
	var opens [3]atomic.Int32
	for round := 0; round < 2; round++ {
		for i, name := range names {
			e, err := c.Acquire(ctx, nil, name, genLoad(t, testSpec(name, branches), &opens[i]))
			if err != nil {
				t.Fatal(err)
			}
			if e.TooBig() {
				t.Fatalf("round %d, trace %s: unexpected too-big verdict", round, name)
			}
			if got := len(drain(t, e)); got != branches {
				t.Fatalf("round %d, trace %s: %d events, want %d", round, name, got, branches)
			}
			c.Release(e)
			if st := c.Stats(); st.BytesUsed > budget {
				t.Fatalf("budget exceeded: %+v", st)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions under a one-trace budget: %+v", st)
	}
	// With every access a capacity miss, each trace is re-decoded per round.
	for i := range names {
		if got := opens[i].Load(); got != 2 {
			t.Errorf("trace %s opened %d times, want 2", names[i], got)
		}
	}
}

func TestLRUPrefersColdEntries(t *testing.T) {
	const branches = 1000
	// Budget fits two decoded traces (1000 records and a table each) but
	// not three.
	c := New(2500*recordBytes + 3*tableBytes(t, readAll(t, testSpec("a", branches))))
	ctx := context.Background()
	var opensA atomic.Int32
	acquire := func(name string, opens *atomic.Int32) {
		t.Helper()
		e, err := c.Acquire(ctx, nil, name, genLoad(t, testSpec(name, branches), opens))
		if err != nil {
			t.Fatal(err)
		}
		c.Release(e)
	}
	acquire("a", &opensA)
	acquire("b", nil)
	acquire("a", &opensA) // refresh a: b becomes the LRU victim
	acquire("c", nil)     // evicts b, not a
	acquire("a", &opensA)
	if got := opensA.Load(); got != 1 {
		t.Errorf("recently-used trace re-opened: %d opens, want 1", got)
	}
}

func TestTooBigFallsBackToStreaming(t *testing.T) {
	c := New(100 * recordBytes)
	ctx := context.Background()

	// Sizer pre-check: the header already rules the trace out — the decode
	// must not even start, and the verdict is cached.
	var opens atomic.Int32
	spec := testSpec("big", 5000)
	for i := 0; i < 2; i++ {
		e, err := c.Acquire(ctx, nil, "big", genLoad(t, spec, &opens))
		if err != nil {
			t.Fatal(err)
		}
		if !e.TooBig() {
			t.Fatalf("acquire %d: want too-big verdict", i)
		}
		if len(e.Batches()) != 0 || e.bytes != 0 {
			t.Errorf("too-big entry retains data: %d batches, %d bytes", len(e.Batches()), e.bytes)
		}
		c.Release(e)
	}
	if got := opens.Load(); got != 1 {
		t.Errorf("size verdict not cached: %d opens, want 1", got)
	}

	// Without a Sizer the decode discovers the overflow mid-stream.
	noSizer := readerLoad(ctx, func() (bp.Reader, error) {
		g, err := tracegen.New(testSpec("big-nosizer", 5000))
		return hideSizer{g}, err
	})
	e, err := c.Acquire(ctx, nil, "big-nosizer", noSizer)
	if err != nil {
		t.Fatal(err)
	}
	if !e.TooBig() {
		t.Fatal("mid-decode overflow not detected")
	}
	c.Release(e)
	if st := c.Stats(); st.BytesUsed != 0 || st.TooBig != 2 {
		t.Errorf("stats after too-big loads = %+v", st)
	}
}

func TestContentionTooBigIsVolatile(t *testing.T) {
	const branches = 1000
	// Fits one trace of 1000 records and its table, not two.
	c := New(1500*recordBytes + 2*tableBytes(t, readAll(t, testSpec("held", branches))))
	ctx := context.Background()
	held, err := c.Acquire(ctx, nil, "held", genLoad(t, testSpec("held", branches), nil))
	if err != nil {
		t.Fatal(err)
	}
	if held.TooBig() {
		t.Fatal("first trace should fit")
	}
	// While "held" is pinned, a second trace cannot evict it: streamed, but
	// the verdict must not stick.
	var opens atomic.Int32
	e, err := c.Acquire(ctx, nil, "later", genLoad(t, testSpec("later", branches), &opens))
	if err != nil {
		t.Fatal(err)
	}
	if !e.TooBig() {
		t.Fatal("want contention too-big while the budget is pinned")
	}
	c.Release(e)
	c.Release(held)
	// With the pin gone, the same trace now caches normally.
	e, err = c.Acquire(ctx, nil, "later", genLoad(t, testSpec("later", branches), &opens))
	if err != nil {
		t.Fatal(err)
	}
	if e.TooBig() {
		t.Fatal("contention verdict was cached; want a fresh load after release")
	}
	if got := len(drain(t, e)); got != branches {
		t.Fatalf("reloaded entry has %d events, want %d", got, branches)
	}
	c.Release(e)
}

// corruptSBBT returns checksummed SBBT bytes with a bit flipped mid-stream,
// so the decode fails with a typed corruption error after some valid events.
func corruptSBBT(t *testing.T, branches int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := sbbt.NewChecksumWriter(&buf, uint64(branches), uint64(branches))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < branches; i++ {
		ev := bp.Event{Branch: bp.Branch{IP: 0x400000 + uint64(i)*4, Target: 0x500000, Opcode: bp.OpCondJump, Taken: i%3 == 0}}
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x10 // reserved bit inside a packet
	return data
}

func TestCorruptTracePoisonsOnlyItself(t *testing.T) {
	data := corruptSBBT(t, 4096)
	c := New(1 << 20)
	ctx := context.Background()
	var opens atomic.Int32
	openCorrupt := readerLoad(ctx, func() (bp.Reader, error) {
		opens.Add(1)
		return sbbt.NewReader(bytes.NewReader(data))
	})
	for i := 0; i < 3; i++ {
		e, err := c.Acquire(ctx, nil, "corrupt", openCorrupt)
		if err != nil {
			t.Fatal(err)
		}
		if e.Err() == nil || e.Err() == io.EOF {
			t.Fatalf("acquire %d: corrupt trace decoded cleanly", i)
		}
		if got := faults.Class(e.Err()); got != "corrupt" {
			t.Errorf("acquire %d: class = %q, want corrupt", i, got)
		}
		if len(e.Batches()) == 0 {
			t.Errorf("acquire %d: events before the fault were dropped", i)
		}
		c.Release(e)
	}
	// Permanent decode faults are cached: one decode serves every predictor.
	if got := opens.Load(); got != 1 {
		t.Errorf("corrupt trace decoded %d times, want 1", got)
	}
	// The cache itself stays healthy for other traces.
	e, err := c.Acquire(ctx, nil, "healthy", genLoad(t, testSpec("healthy", 2000), nil))
	if err != nil {
		t.Fatal(err)
	}
	if e.TooBig() || e.Err() != io.EOF {
		t.Errorf("healthy trace affected by corrupt neighbour: tooBig=%v err=%v", e.TooBig(), e.Err())
	}
	c.Release(e)
}

// cutReader ends a stream after n events with an error outside the faults
// taxonomy, as a truncated gzip stream ends in io.ErrUnexpectedEOF.
type cutReader struct {
	r bp.Reader
	n int
}

func (c *cutReader) Read() (bp.Event, error) {
	if c.n == 0 {
		return bp.Event{}, io.ErrUnexpectedEOF
	}
	c.n--
	return c.r.Read()
}

// TestDecodeErrorAfterOpenIsCached: an error that ends a stream after a
// successful open is a property of the bytes, whatever its class. It is
// cached with the events before it, so every holder reads what streaming
// would deliver and the trace is decoded once.
func TestDecodeErrorAfterOpenIsCached(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	spec := testSpec("cut", 3*BatchEvents)
	const cut = BatchEvents + 100
	var opens atomic.Int32
	load := readerLoad(ctx, func() (bp.Reader, error) {
		opens.Add(1)
		g, err := tracegen.New(spec)
		return &cutReader{r: g, n: cut}, err
	})
	want := readAll(t, spec)[:cut]
	for i := 0; i < 3; i++ {
		e, err := c.Acquire(ctx, nil, "cut", load)
		if err != nil {
			t.Fatal(err)
		}
		if e.TooBig() || e.Err() != io.ErrUnexpectedEOF {
			t.Fatalf("acquire %d: tooBig=%v err=%v, want io.ErrUnexpectedEOF", i, e.TooBig(), e.Err())
		}
		if !equalEvents(drain(t, e), want) {
			t.Errorf("acquire %d: events before the cut differ from streaming", i)
		}
		c.Release(e)
	}
	if got := opens.Load(); got != 1 {
		t.Errorf("cut trace opened %d times, want 1", got)
	}
}

func TestTransientOpenFailureNotCached(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	var opens atomic.Int32
	spec := testSpec("flaky", 1000)
	open := readerLoad(ctx, func() (bp.Reader, error) {
		if opens.Add(1) == 1 {
			return nil, errors.New("transient: too many open files")
		}
		return tracegen.New(spec)
	})
	e, err := c.Acquire(ctx, nil, "flaky", open)
	if err != nil {
		t.Fatal(err)
	}
	if e.Err() == nil || e.Err() == io.EOF {
		t.Fatal("first acquire should surface the open failure")
	}
	c.Release(e)
	// The failure was transient, so the entry must not have been cached.
	e, err = c.Acquire(ctx, nil, "flaky", open)
	if err != nil {
		t.Fatal(err)
	}
	if e.Err() != io.EOF {
		t.Fatalf("second acquire err = %v, want clean decode", e.Err())
	}
	c.Release(e)
	if got := opens.Load(); got != 2 {
		t.Errorf("opens = %d, want 2", got)
	}

	// A permanent open failure, by contrast, is cached.
	var permOpens atomic.Int32
	permanent := readerLoad(ctx, func() (bp.Reader, error) {
		permOpens.Add(1)
		return nil, faults.ErrCorrupt
	})
	for i := 0; i < 2; i++ {
		e, err := c.Acquire(ctx, nil, "perm", permanent)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(e.Err(), faults.ErrCorrupt) {
			t.Fatalf("acquire %d err = %v, want ErrCorrupt", i, e.Err())
		}
		c.Release(e)
	}
	if got := permOpens.Load(); got != 1 {
		t.Errorf("permanent failure re-opened: %d opens, want 1", got)
	}
}

// TestDisabledCacheStreamsEverything: a budget ≤ 0 builds no cache, the
// nil callers take for "stream every trace".
func TestDisabledCacheStreamsEverything(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		if c := New(budget); c != nil {
			t.Errorf("New(%d) = %p, want nil (no cache)", budget, c)
		}
	}
}

func TestAcquireCancelledWhileWaiting(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	unblock := make(chan struct{})
	slowOpen := readerLoad(context.Background(), func() (bp.Reader, error) {
		close(started)
		<-unblock
		return tracegen.New(testSpec("slow", 100))
	})
	go func() {
		e, err := c.Acquire(context.Background(), nil, "slow", slowOpen)
		if err == nil {
			c.Release(e)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Acquire(ctx, nil, "slow", slowOpen); !errors.Is(err, context.Canceled) {
		t.Errorf("Acquire under cancelled ctx = %v, want context.Canceled", err)
	}
	close(unblock)
}

// TestWaiterOutlivesLoaderContext: a waiter that joined a load abandoned
// because the loading caller's context was cancelled does not inherit that
// context error while its own context is live — it loads the trace itself.
func TestWaiterOutlivesLoaderContext(t *testing.T) {
	spec := testSpec("shared", 10_000) // more than one batch: the loader sees its ctx
	want := readAll(t, spec)
	c := New(1 << 20)
	loaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, proceed := make(chan struct{}), make(chan struct{})
	var opens atomic.Int32
	load := func(ctx context.Context) LoadFunc {
		return readerLoad(ctx, func() (bp.Reader, error) {
			g, err := tracegen.New(spec)
			if opens.Add(1) == 1 {
				return &gateFirstRead{r: g, started: started, proceed: proceed}, err
			}
			return g, err
		})
	}
	loaderDone := make(chan *Entry)
	go func() {
		e, _ := c.Acquire(loaderCtx, nil, "shared", load(loaderCtx))
		loaderDone <- e
	}()
	<-started
	waiterDone := make(chan *Entry)
	go func() {
		e, err := c.Acquire(context.Background(), nil, "shared", load(context.Background()))
		if err != nil {
			t.Error(err)
		}
		waiterDone <- e
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(proceed)
	if e := <-loaderDone; e != nil {
		if !errors.Is(e.Err(), context.Canceled) {
			t.Errorf("loader err = %v, want context.Canceled", e.Err())
		}
		c.Release(e)
	}
	e := <-waiterDone
	if e == nil {
		t.Fatal("waiter got no entry")
	}
	defer c.Release(e)
	if e.Err() != io.EOF {
		t.Fatalf("waiter err = %v, want io.EOF (the loader's context error leaked)", e.Err())
	}
	if !equalEvents(drain(t, e), want) {
		t.Errorf("waiter saw %d events, want the full %d", len(drain(t, e)), len(want))
	}
	if got := opens.Load(); got != 2 {
		t.Errorf("opens = %d, want 2 (the abandoned load, then the waiter's own)", got)
	}
}

// gateFirstRead signals started on its first Read and blocks it until
// proceed closes.
type gateFirstRead struct {
	r                bp.Reader
	started, proceed chan struct{}
	gated            bool
}

func (g *gateFirstRead) Read() (bp.Event, error) {
	if !g.gated {
		g.gated = true
		close(g.started)
		<-g.proceed
	}
	return g.r.Read()
}

// TestCollectorPerCaller: the cache is shared, its metrics are not. Two
// callers, each with its own collector and each acquiring concurrently, see
// only their own hits and misses, while the resident-bytes gauge both see
// is the cache's shared total.
func TestCollectorPerCaller(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	colA, colB := obs.New(), obs.New()
	const traces = 4
	acquireAll := func(col *obs.Collector, names ...string) {
		var wg sync.WaitGroup
		for _, name := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := c.Acquire(ctx, col, name, genLoad(t, testSpec(name, 2_000), nil))
				if err != nil {
					t.Error(err)
					return
				}
				if e.Err() != io.EOF {
					t.Errorf("%s: err = %v, want io.EOF", name, e.Err())
				}
				c.Release(e)
			}()
		}
		wg.Wait()
	}
	var aNames, bNames []string
	for i := 0; i < traces; i++ {
		aNames = append(aNames, fmt.Sprintf("a%d", i))
		bNames = append(bNames, fmt.Sprintf("b%d", i))
	}
	both := func(a, b []string) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); acquireAll(colA, a...) }()
		go func() { defer wg.Done(); acquireAll(colB, b...) }()
		wg.Wait()
	}
	both(aNames, bNames)               // each caller loads its own traces
	both(append(bNames, "a0"), aNames) // then hits the other's, A one more

	for _, tc := range []struct {
		name         string
		col          *obs.Collector
		misses, hits uint64
	}{{"A", colA, traces, traces + 1}, {"B", colB, traces, traces}} {
		if got := tc.col.Ctr(obs.CtrCacheMisses).Load(); got != tc.misses {
			t.Errorf("caller %s misses = %d, want %d", tc.name, got, tc.misses)
		}
		if got := tc.col.Ctr(obs.CtrCacheHits).Load(); got != tc.hits {
			t.Errorf("caller %s hits = %d, want %d", tc.name, got, tc.hits)
		}
	}
	st := c.Stats()
	if st.Misses != 2*traces || st.Hits != 2*traces+1 {
		t.Errorf("cache misses/hits = %d/%d, want %d/%d", st.Misses, st.Hits, 2*traces, 2*traces+1)
	}
	if want := 2 * traces * (2_000*recordBytes + tableBytes(t, readAll(t, testSpec("a0", 2_000)))); st.BytesUsed != want {
		t.Errorf("bytes used = %d, want %d", st.BytesUsed, want)
	}
	for name, col := range map[string]*obs.Collector{"A": colA, "B": colB} {
		if got := col.Ctr(obs.CtrCacheBytes).Load(); got != uint64(st.BytesUsed) {
			t.Errorf("caller %s cache_bytes = %d, want the shared total %d", name, got, st.BytesUsed)
		}
	}
}

// TestCancelledLoadReturnsBudget locks in drop's contract: a
// load abandoned by context cancellation gives its partially charged bytes
// back to the budget, drops its batches, and is removed from the map so a
// later Acquire retries.
func TestCancelledLoadReturnsBudget(t *testing.T) {
	c := New(1 << 20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	open := readerLoad(ctx, func() (bp.Reader, error) {
		g, err := tracegen.New(testSpec("cancelled", 100_000))
		if err != nil {
			return nil, err
		}
		return &cancelAfter{r: g, after: 5_000, cancel: cancel}, nil
	})
	e, err := c.Acquire(ctx, nil, "cancelled", open)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e.Err(), context.Canceled) {
		t.Fatalf("entry err = %v, want context.Canceled", e.Err())
	}
	if got := len(drain(t, e)); got != 0 {
		t.Errorf("abandoned entry kept %d events, want 0", got)
	}
	c.Release(e)
	st := c.Stats()
	if st.BytesUsed != 0 {
		t.Errorf("bytes used = %d after abandoned load, want 0 (drop must return the budget)", st.BytesUsed)
	}
	if st.Entries != 0 {
		t.Errorf("entries = %d, want 0 (cancellation is volatile: a later Acquire retries)", st.Entries)
	}
}

// cancelAfter cancels the surrounding context after n events, so the load
// loop observes ctx.Err() at its next batch boundary.
type cancelAfter struct {
	r      bp.Reader
	n      int
	after  int
	cancel context.CancelFunc
}

func (f *cancelAfter) Read() (bp.Event, error) {
	f.n++
	if f.n == f.after {
		f.cancel()
	}
	return f.r.Read()
}
