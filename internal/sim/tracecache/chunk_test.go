package tracecache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
)

// traceEvents builds a deterministic event slice, distinct per trace k.
func traceEvents(k, n int) []bp.Event {
	evs := make([]bp.Event, n)
	for i := range evs {
		evs[i] = bp.Event{
			Branch:                bp.Branch{IP: uint64(k)<<32 | uint64(i), Opcode: bp.OpCondJump, Taken: i%2 == 0},
			InstrsSinceLastBranch: uint64(i % 5),
		}
	}
	return evs
}

// eventsLoad is a loader that decodes in one step, whose events (kept even
// on a failure) go to the cache at once.
func eventsLoad(decode func() ([]bp.Event, error)) LoadFunc {
	return func(f *Fill) (int, error) {
		evs, err := decode()
		f.Add(evs)
		return 1, err
	}
}

// countingLoad returns a loader serving traceEvents(k, n) and counting
// invocations.
func countingLoad(k, n int, loads *atomic.Int32) LoadFunc {
	return eventsLoad(func() ([]bp.Event, error) {
		if loads != nil {
			loads.Add(1)
		}
		return traceEvents(k, n), nil
	})
}

func TestAcquireChunkSingleFlight(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	var loads atomic.Int32

	const readers = 8
	var wg sync.WaitGroup
	entries := make([]*Entry, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.Acquire(ctx, nil, "trace", countingLoad(3, 1000, &loads))
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Errorf("trace loaded %d times, want 1 (single-flight)", got)
	}
	want := traceEvents(3, 1000)
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
	// Another trace is an independent entry, with a table of its own.
	e0, err := c.Acquire(ctx, nil, "other", countingLoad(0, 10, &loads))
	if err != nil {
		t.Fatal(err)
	}
	if !equalEvents(drain(t, e0), traceEvents(0, 10)) {
		t.Error("the second trace served the first one's events")
	}
	c.Release(e0)
	if st := c.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 entries, 2 misses", st)
	}
}

// TestAcquireChunkCorruptPoisonsOnlyItself: a permanent decode fault is
// cached with the trace's pre-error events, and other traces stay clean —
// damage is confined to the entry that carries it.
func TestAcquireChunkCorruptPoisonsOnlyItself(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	var badLoads atomic.Int32
	corrupt := fmt.Errorf("decode: %w", faults.ErrCorrupt)
	badLoad := eventsLoad(func() ([]bp.Event, error) {
		badLoads.Add(1)
		return traceEvents(1, 100), corrupt // events before the fault survive
	})

	e1, err := c.Acquire(ctx, nil, "t1", badLoad)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e1.Err(), faults.ErrCorrupt) {
		t.Fatalf("trace 1 err = %v, want ErrCorrupt", e1.Err())
	}
	if got := drain(t, e1); !equalEvents(got, traceEvents(1, 100)) {
		t.Errorf("pre-error events lost: got %d", len(got))
	}
	c.Release(e1)

	// The permanent fault is cached: no re-decode on a second acquire.
	e1b, err := c.Acquire(ctx, nil, "t1", badLoad)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e1b.Err(), faults.ErrCorrupt) {
		t.Errorf("cached err = %v, want ErrCorrupt", e1b.Err())
	}
	c.Release(e1b)
	if got := badLoads.Load(); got != 1 {
		t.Errorf("corrupt trace decoded %d times, want 1 (cached poison)", got)
	}

	// Other traces decode cleanly.
	for _, k := range []int{0, 2} {
		e, err := c.Acquire(ctx, nil, fmt.Sprintf("t%d", k), countingLoad(k, 100, nil))
		if err != nil {
			t.Fatal(err)
		}
		if e.Err() != io.EOF {
			t.Errorf("trace %d err = %v, want io.EOF", k, e.Err())
		}
		c.Release(e)
	}
}

// TestAcquireChunkTransientNotCached: a non-permanent failure is volatile —
// every waiter sees it, but a later acquire retries the load.
func TestAcquireChunkTransientNotCached(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	transient := errors.New("open: resource temporarily unavailable")
	var loads atomic.Int32
	flaky := eventsLoad(func() ([]bp.Event, error) {
		if loads.Add(1) == 1 {
			return nil, transient
		}
		return traceEvents(0, 64), nil
	})

	e, err := c.Acquire(ctx, nil, "t", flaky)
	if err != nil {
		t.Fatal(err)
	}
	if e.Err() != transient {
		t.Fatalf("first acquire err = %v, want the transient error", e.Err())
	}
	c.Release(e)

	e2, err := c.Acquire(ctx, nil, "t", flaky)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Err() != io.EOF || !equalEvents(drain(t, e2), traceEvents(0, 64)) {
		t.Errorf("retry entry err = %v, want clean decode", e2.Err())
	}
	c.Release(e2)
	if got := loads.Load(); got != 2 {
		t.Errorf("load ran %d times, want 2 (transient not cached)", got)
	}
}

// TestAcquireChunkPanicIsTyped: a panicking decoder becomes a cached typed
// fault, never a crashed scheduler.
func TestAcquireChunkPanicIsTyped(t *testing.T) {
	c := New(1 << 20)
	e, err := c.Acquire(context.Background(), nil, "t", eventsLoad(func() ([]bp.Event, error) {
		panic("deliberate test panic")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e.Err(), faults.ErrPredictorPanic) && faults.Class(e.Err()) != "panic" {
		t.Errorf("panic load err = %v (class %s), want a typed panic fault", e.Err(), faults.Class(e.Err()))
	}
	c.Release(e)
}

// TestAcquireChunkTooBig: a trace that alone exceeds the budget yields a
// too-big verdict and charges nothing.
func TestAcquireChunkTooBig(t *testing.T) {
	c := New(100 * recordBytes)
	e, err := c.Acquire(context.Background(), nil, "t", countingLoad(0, 1000, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !e.TooBig() {
		t.Fatal("oversized trace was pinned")
	}
	c.Release(e)
	if st := c.Stats(); st.BytesUsed != 0 || st.TooBig != 1 {
		t.Errorf("stats = %+v, want 0 bytes used, 1 too-big", st)
	}
}

// TestAcquireChunkEvictionBudget hammers the cache with concurrent
// pin/release cycles over more traces than fit, checking the budget
// invariant after every acquire and the final accounting.
func TestAcquireChunkEvictionBudget(t *testing.T) {
	const traceLen, traces = 500, 8
	var one int64
	for k := range traces {
		one = max(one, traceLen*recordBytes+tableBytes(t, traceEvents(k, traceLen)))
	}
	budget := 3 * one // 3 traces, records and tables
	c := New(budget)
	ctx := context.Background()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				k := (w + round) % traces
				e, err := c.Acquire(ctx, nil, fmt.Sprintf("t%d", k), countingLoad(k, traceLen, nil))
				if err != nil {
					t.Error(err)
					return
				}
				if !e.TooBig() {
					if !equalEvents(drain(t, e), traceEvents(k, traceLen)) {
						t.Errorf("trace %d decoded wrong events", k)
					}
				}
				if st := c.Stats(); st.BytesUsed > budget {
					t.Errorf("budget exceeded: %d > %d", st.BytesUsed, budget)
				}
				c.Release(e)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesUsed > budget {
		t.Errorf("final bytes %d exceed budget %d", st.BytesUsed, budget)
	}
	if st.Evictions == 0 {
		t.Error("8 traces cycled through a 3-trace budget with no evictions")
	}
	// Every resident entry is idle now; its bytes must all be accounted.
	var sum int64
	c.mu.Lock()
	for _, e := range c.entries {
		if e.refs != 0 {
			t.Errorf("entry %s still pinned (refs %d) after all releases", e.id, e.refs)
		}
		sum += e.bytes
	}
	c.mu.Unlock()
	if sum != st.BytesUsed {
		t.Errorf("entry bytes sum %d != BytesUsed %d", sum, st.BytesUsed)
	}
}
