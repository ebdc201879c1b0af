package sim

import (
	"runtime/debug"
	"sync"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
)

// batchEvents is the number of events per prefetched batch. At 32 bytes per
// event a batch is 128 KiB — large enough to amortise the channel handoff
// and the batch-boundary checks over thousands of events, small enough to
// stay cache-resident and to keep at most a few hundred KiB in flight.
const batchEvents = 4096

// batchSizeFor picks the batch size of a one-off read buffer for a reader:
// traces known (via bp.Sizer) to be smaller than one standard batch get a
// right-sized buffer instead of a mostly-unused 128 KiB slice.
func batchSizeFor(r bp.Reader) int {
	if s, ok := r.(bp.Sizer); ok {
		if n := s.TotalBranches(); n > 0 && n < batchEvents {
			return int(n)
		}
	}
	return batchEvents
}

// batch is one unit of prefetched work: the decoded events plus the error,
// if any, that ended the batch ("error after n" — events is valid even when
// err is non-nil, including io.EOF).
type batch struct {
	events []bp.Event
	err    error
}

// prefetcher decodes ahead of the simulation loop: a single producer
// goroutine owns the reader and double-buffers batches — including any
// decompression the reader performs underneath — while the consumer
// simulates the previous batch.
//
// Lifecycle rules (see DESIGN.md):
//
//   - The producer goroutine is the only one touching the reader after
//     startPrefetch returns.
//   - shutdown blocks until the producer has stopped touching the reader,
//     so the caller may close the underlying file as soon as Run returns.
//   - The producer stops at the first error (errors are sticky per the
//     bp.BatchReader contract) or when shutdown is requested.
//   - A panic inside the reader is recovered in the producer and surfaced
//     as a *faults.PanicError batch error, keeping the process alive and
//     the fault classifiable (faults.Class reports "panic"), exactly as a
//     predictor panic would be under RunSetPolicy.
type prefetcher struct {
	filled  chan batch      // producer -> consumer, decoded batches
	free    chan []bp.Event // consumer -> producer, recycled buffers
	done    chan struct{}   // closed to request producer shutdown
	stopped chan struct{}   // closed by the producer on exit
	once    sync.Once       // guards close(done)
	col     *obs.Collector  // nil when metrics are disabled
}

// eventBufs recycles prefetch buffers across runs. Allocating and zeroing
// two fresh 128 KiB buffers costs about as much as simulating a few
// thousand branches, which would otherwise dominate runs over short traces.
// Events hold no pointers, so pooled buffers cost the collector nothing.
var eventBufs = sync.Pool{New: func() any { return new([batchEvents]bp.Event) }}

// startPrefetch launches the producer goroutine reading from r in batches
// of up to batchEvents events. Ownership of r passes to the prefetcher
// until shutdown returns. col may be nil (metrics disabled).
func startPrefetch(r bp.Reader, col *obs.Collector) *prefetcher {
	pf := &prefetcher{
		filled:  make(chan batch, 1),
		free:    make(chan []bp.Event, 2),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		col:     col,
	}
	// Two buffers: one being consumed, one being filled. With filled
	// buffered to depth 1, the producer can stay one full batch ahead.
	pf.free <- eventBufs.Get().(*[batchEvents]bp.Event)[:]
	pf.free <- eventBufs.Get().(*[batchEvents]bp.Event)[:]
	go pf.produce(r)
	return pf
}

func (pf *prefetcher) produce(r bp.Reader) {
	defer close(pf.stopped)
	col := pf.col
	for {
		var buf []bp.Event
		tStall := col.Now()
		select {
		case <-pf.done:
			return
		case buf = <-pf.free:
		}
		tRead := col.Now()
		col.Stage(obs.StageProduceStall).Add(tRead.Sub(tStall))
		n, err := readBatchSafe(r, buf[:cap(buf)])
		readDur := col.Now().Sub(tRead)
		col.Stage(obs.StageRead).Add(readDur)
		col.Hist(obs.HistBatchReadNs).ObserveDuration(readDur)
		col.Ctr(obs.CtrBatches).Add(1)
		select {
		case <-pf.done:
			return
		case pf.filled <- batch{events: buf[:n], err: err}:
		}
		if err != nil {
			// Errors are sticky; further reads would return (0, err)
			// forever. Close filled so the consumer sees end-of-stream
			// after draining this batch.
			close(pf.filled)
			return
		}
	}
}

// readBatchSafe reads one batch, converting a reader panic into a typed
// error so that a corrupt-input crash in a decoder takes down only this
// simulation, not the process — the same containment RunSetPolicy applies
// to predictor panics.
func readBatchSafe(r bp.Reader, dst []bp.Event) (n int, err error) {
	defer func() {
		if v := recover(); v != nil {
			n = 0
			err = faults.NewPanicError(v, debug.Stack())
		}
	}()
	return bp.ReadBatch(r, dst)
}

// next returns the next prefetched batch. ok is false once the producer has
// stopped and every pending batch has been consumed.
func (pf *prefetcher) next() (batch, bool) {
	b, ok := <-pf.filled
	return b, ok
}

// recycle hands a consumed batch buffer back to the producer. Callers must
// not touch the slice afterwards.
func (pf *prefetcher) recycle(buf []bp.Event) {
	select {
	case pf.free <- buf[:cap(buf)]:
	default:
		// Producer already stopped and both buffers are back: drop it.
	}
}

// shutdown stops the producer and blocks until it no longer touches the
// reader, then returns the recycled buffers to the pool. Safe to call
// multiple times; Run defers it so that early returns (decode error,
// instruction limit) cannot leak the goroutine or race the caller's file
// close. A buffer the consumer still holds is not returned to the pool.
func (pf *prefetcher) shutdown() {
	pf.once.Do(func() { close(pf.done) })
	// Drain filled so a producer blocked on delivery can proceed, until the
	// producer signals it has exited (and thus no longer touches the
	// reader). Discarded batches are left to the collector.
	for stopped := false; !stopped; {
		select {
		case <-pf.filled:
		case <-pf.stopped:
			stopped = true
		}
	}
	for {
		select {
		case buf := <-pf.free:
			eventBufs.Put((*[batchEvents]bp.Event)(buf[:batchEvents]))
		default:
			return
		}
	}
}
