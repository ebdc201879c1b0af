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

// chunkEvents builds a deterministic, chunk-distinct event slice.
func chunkEvents(chunk, n int) []bp.Event {
	evs := make([]bp.Event, n)
	for i := range evs {
		evs[i] = bp.Event{
			Branch:                bp.Branch{IP: uint64(chunk)<<32 | uint64(i), Opcode: bp.OpCondJump, Taken: i%2 == 0},
			InstrsSinceLastBranch: uint64(i % 5),
		}
	}
	return evs
}

// chunkLoad is a chunk loader shaped like the simulator's: one decode,
// whose events (kept even on a failure) go to the cache at once.
func chunkLoad(decode func() ([]bp.Event, error)) LoadFunc {
	return func(f *Fill) (int, error) {
		evs, err := decode()
		f.Add(evs)
		return 1, err
	}
}

// countingChunkLoad returns a loader serving chunkEvents(chunk, n) and
// counting invocations.
func countingChunkLoad(chunk, n int, loads *atomic.Int32) LoadFunc {
	return chunkLoad(func() ([]bp.Event, error) {
		if loads != nil {
			loads.Add(1)
		}
		return chunkEvents(chunk, n), nil
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
			e, err := c.Acquire(ctx, nil, "trace", 3, countingChunkLoad(3, 1000, &loads))
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Errorf("chunk loaded %d times, want 1 (single-flight)", got)
	}
	want := chunkEvents(3, 1000)
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
	// Chunks of the same trace are independent entries.
	e0, err := c.Acquire(ctx, nil, "trace", 0, countingChunkLoad(0, 10, &loads))
	if err != nil {
		t.Fatal(err)
	}
	if !equalEvents(drain(t, e0), chunkEvents(0, 10)) {
		t.Error("chunk 0 served chunk 3's events")
	}
	c.Release(e0)
	if st := c.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 entries, 2 misses", st)
	}
}

// TestAcquireChunkKeyIsolation: a chunk entry never collides with a
// whole-trace entry of the same name, nor with other chunk numbers.
func TestAcquireChunkKeyIsolation(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	e1, err := c.Acquire(ctx, nil, "t", 12, countingChunkLoad(12, 50, nil))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Acquire(ctx, nil, "t", 1, countingChunkLoad(1, 50, nil))
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatal("chunks 12 and 1 shared one entry")
	}
	if !equalEvents(drain(t, e1), chunkEvents(12, 50)) || !equalEvents(drain(t, e2), chunkEvents(1, 50)) {
		t.Error("chunk entries returned wrong events")
	}
	c.Release(e1)
	c.Release(e2)

	// A trace read whole is keyed apart from chunk 0 of the same name: a
	// cell whose chunked open failed must never be served a chunk's events.
	e0, err := c.Acquire(ctx, nil, "t", 0, countingChunkLoad(0, 50, nil))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := c.Acquire(ctx, nil, "t", Whole, countingChunkLoad(7, 80, nil))
	if err != nil {
		t.Fatal(err)
	}
	if e0 == whole {
		t.Fatal("chunk 0 and the whole trace shared one entry")
	}
	if !equalEvents(drain(t, e0), chunkEvents(0, 50)) || !equalEvents(drain(t, whole), chunkEvents(7, 80)) {
		t.Error("whole-trace and chunk 0 entries returned wrong events")
	}
	c.Release(e0)
	c.Release(whole)
	if st := c.Stats(); st.Entries != 4 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 4 entries, 4 misses", st)
	}
}

// TestAcquireChunkCorruptPoisonsOnlyItself: a permanent decode fault is
// cached with the chunk's pre-error events, and neighbouring chunks stay
// clean — damage is confined to the chunk that carries it.
func TestAcquireChunkCorruptPoisonsOnlyItself(t *testing.T) {
	c := New(1 << 20)
	ctx := context.Background()
	var badLoads atomic.Int32
	corrupt := fmt.Errorf("decode: %w", faults.ErrCorrupt)
	badLoad := chunkLoad(func() ([]bp.Event, error) {
		badLoads.Add(1)
		return chunkEvents(1, 100), corrupt // events before the fault survive
	})

	e1, err := c.Acquire(ctx, nil, "t", 1, badLoad)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e1.Err(), faults.ErrCorrupt) {
		t.Fatalf("chunk 1 err = %v, want ErrCorrupt", e1.Err())
	}
	if got := drain(t, e1); !equalEvents(got, chunkEvents(1, 100)) {
		t.Errorf("pre-error events lost: got %d", len(got))
	}
	c.Release(e1)

	// The permanent fault is cached: no re-decode on a second acquire.
	e1b, err := c.Acquire(ctx, nil, "t", 1, badLoad)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(e1b.Err(), faults.ErrCorrupt) {
		t.Errorf("cached err = %v, want ErrCorrupt", e1b.Err())
	}
	c.Release(e1b)
	if got := badLoads.Load(); got != 1 {
		t.Errorf("corrupt chunk decoded %d times, want 1 (cached poison)", got)
	}

	// Neighbours decode cleanly.
	for _, i := range []int{0, 2} {
		e, err := c.Acquire(ctx, nil, "t", i, countingChunkLoad(i, 100, nil))
		if err != nil {
			t.Fatal(err)
		}
		if e.Err() != io.EOF {
			t.Errorf("chunk %d err = %v, want io.EOF", i, e.Err())
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
	flaky := chunkLoad(func() ([]bp.Event, error) {
		if loads.Add(1) == 1 {
			return nil, transient
		}
		return chunkEvents(0, 64), nil
	})

	e, err := c.Acquire(ctx, nil, "t", 0, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if e.Err() != transient {
		t.Fatalf("first acquire err = %v, want the transient error", e.Err())
	}
	c.Release(e)

	e2, err := c.Acquire(ctx, nil, "t", 0, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Err() != io.EOF || !equalEvents(drain(t, e2), chunkEvents(0, 64)) {
		t.Errorf("retry entry err = %v, want clean decode", e2.Err())
	}
	c.Release(e2)
	if got := loads.Load(); got != 2 {
		t.Errorf("load ran %d times, want 2 (transient not cached)", got)
	}
}

// TestAcquireChunkPanicIsTyped: a panicking chunk decoder becomes a cached
// typed fault, never a crashed scheduler.
func TestAcquireChunkPanicIsTyped(t *testing.T) {
	c := New(1 << 20)
	e, err := c.Acquire(context.Background(), nil, "t", 0, chunkLoad(func() ([]bp.Event, error) {
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

// TestAcquireChunkTooBig: a chunk that alone exceeds the budget yields a
// too-big verdict and charges nothing.
func TestAcquireChunkTooBig(t *testing.T) {
	c := New(100 * recordBytes)
	e, err := c.Acquire(context.Background(), nil, "t", 0, countingChunkLoad(0, 1000, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !e.TooBig() {
		t.Fatal("oversized chunk was pinned")
	}
	c.Release(e)
	if st := c.Stats(); st.BytesUsed != 0 || st.TooBig != 1 {
		t.Errorf("stats = %+v, want 0 bytes used, 1 too-big", st)
	}
}

// TestAcquireChunkEvictionBudget hammers the cache with concurrent
// pin/release cycles over more chunks than fit, checking the budget
// invariant after every acquire and the final accounting.
func TestAcquireChunkEvictionBudget(t *testing.T) {
	const chunkLen, chunks = 500, 8
	var all [][]bp.Event
	for chunk := range chunks {
		all = append(all, chunkEvents(chunk, chunkLen))
	}
	// Fits the trace's table and 3 chunks of 500 records.
	budget := 3*chunkLen*recordBytes + tableBytes(t, all...)
	c := New(budget)
	ctx := context.Background()
	// One pass in trace order grows the table to its full size first: a
	// table's growth is charged even while every entry is pinned, so only
	// a grown table keeps the budget a hard bound under contention.
	for chunk := range chunks {
		e, err := c.Acquire(ctx, nil, "big-trace", chunk, countingChunkLoad(chunk, chunkLen, nil))
		if err != nil {
			t.Fatal(err)
		}
		c.Release(e)
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				chunk := (w + round) % chunks
				e, err := c.Acquire(ctx, nil, "big-trace", chunk, countingChunkLoad(chunk, chunkLen, nil))
				if err != nil {
					t.Error(err)
					return
				}
				if !e.TooBig() {
					if !equalEvents(drain(t, e), chunkEvents(chunk, chunkLen)) {
						t.Errorf("chunk %d decoded wrong events", chunk)
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
		t.Error("8 chunks cycled through a 3-chunk budget with no evictions")
	}
	// Every resident entry is idle now; its bytes must all be accounted.
	var sum int64
	c.mu.Lock()
	for _, e := range c.entries {
		if e.refs != 0 {
			t.Errorf("entry %v still pinned (refs %d) after all releases", e.key, e.refs)
		}
		sum += e.bytes
	}
	for _, tab := range c.tables {
		sum += tab.charged
	}
	c.mu.Unlock()
	if sum != st.BytesUsed {
		t.Errorf("entry and table bytes sum %d != BytesUsed %d", sum, st.BytesUsed)
	}
}
