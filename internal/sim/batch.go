package sim

import (
	"context"
	"errors"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/sim/tracecache"
)

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
//     so the caller may close the underlying file as soon as it returns.
//   - The producer stops at the first error (errors are sticky per the
//     bp.BatchReader contract) or when shutdown is requested.
//   - A panic inside the reader is recovered in the producer and surfaced
//     as a *faults.PanicError batch error, keeping the process alive and
//     the fault classifiable (faults.Class reports "panic"), exactly as a
//     predictor panic is inside a SweepParallel cell.
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
var eventBufs = sync.Pool{New: func() any { return new([tracecache.BatchEvents]bp.Event) }}

// startPrefetch launches the producer goroutine reading from r in batches
// of up to tracecache.BatchEvents events. Ownership of r passes to the
// prefetcher until shutdown returns. col may be nil (metrics disabled).
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
	pf.free <- eventBufs.Get().(*[tracecache.BatchEvents]bp.Event)[:]
	pf.free <- eventBufs.Get().(*[tracecache.BatchEvents]bp.Event)[:]
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
		col.Stage(obs.StageProduceStall).Since(tStall)
		var n int
		var err error
		timedRead(col, func() { n, err = readBatchSafe(r, buf[:cap(buf)]) })
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

// timedRead runs one decode step — a batch read from a trace stream or the
// decode of one chunk — and records it as one read. obs.StageRead,
// obs.HistBatchReadNs and obs.CtrBatches are recorded here and nowhere else.
func timedRead(col *obs.Collector, read func()) {
	t := col.Now()
	read()
	d := col.Now().Sub(t)
	col.Stage(obs.StageRead).Add(d)
	col.Hist(obs.HistBatchReadNs).ObserveDuration(d)
	col.Ctr(obs.CtrBatches).Add(1)
}

// readBatchSafe reads one batch, converting a reader panic into a typed
// error so that a corrupt-input crash in a decoder takes down only this
// simulation, not the process — the same containment SweepParallel applies
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
// multiple times; prefetchStream.close calls it so that early returns
// (decode error, instruction limit) cannot leak the goroutine or race the
// caller's file close. A buffer the consumer still holds is not returned to
// the pool.
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
			eventBufs.Put((*[tracecache.BatchEvents]bp.Event)(buf[:tracecache.BatchEvents]))
		default:
			return
		}
	}
}

// batchStream is how a cell consumes its trace: a chunk-by-chunk walk
// through the cache (cachedStream) or a prefetching reader. next
// returns a non-empty batch, or (nil, io.EOF) on clean exhaustion, or
// (nil, err) on a decode error — always after every event decoded before
// the error was delivered. A batch stays valid until the next call. close
// releases what the stream holds (cache pins, the prefetch goroutine, the
// trace file); the stream is unusable afterwards.
type batchStream interface {
	next() ([]bp.Event, error)
	close()
}

// prefetchStream reads a trace straight from its reader: a prefetcher
// decodes the next batch while the cell simulates the current one. A
// terminal error arriving with a non-empty batch is held back until that
// batch was delivered. It is the only stream that waits on a producer, so
// it alone times obs.StagePrefetchStall.
type prefetchStream struct {
	pf     *prefetcher
	closer io.Closer // closed once the producer has stopped; may be nil
	col    *obs.Collector
	cur    []bp.Event // the batch last delivered, recycled on the next call
	err    error      // terminal error held back behind cur
}

func newPrefetchStream(r bp.Reader, closer io.Closer, col *obs.Collector) *prefetchStream {
	return &prefetchStream{pf: startPrefetch(r, col), closer: closer, col: col}
}

func (s *prefetchStream) next() ([]bp.Event, error) {
	for {
		if s.cur != nil {
			s.pf.recycle(s.cur)
			s.cur = nil
		}
		if s.err != nil {
			return nil, s.err
		}
		tWait := s.col.Now()
		b, ok := s.pf.next()
		s.col.Stage(obs.StagePrefetchStall).Since(tWait)
		if !ok {
			// The producer closes filled only after a terminal batch, which
			// set s.err above; it cannot end the stream silently.
			return nil, io.ErrUnexpectedEOF
		}
		s.cur, s.err = b.events, b.err
		if len(b.events) > 0 {
			return b.events, nil
		}
	}
}

func (s *prefetchStream) close() {
	if s.cur != nil {
		s.pf.recycle(s.cur)
		s.cur = nil
	}
	s.pf.shutdown()
	if s.closer != nil {
		s.closer.Close() //mbpvet:ignore droppederr -- read side: a close failure cannot corrupt the already-consumed trace
	}
}

// runCell is the one simulation loop: Run and every SweepParallel cell
// drive a fresh predictor from newP over a batch stream through it. On top
// of runLoop it restores a journalled checkpoint, checkpoints every
// jc.every events, and observes the drain and the context between batches.
// With a nil jc and a nil drain it is the plain loop behind Run. On a drain
// the current state is checkpointed (when journalling a checkpointable
// predictor) before the drained error returns, so the resumed sweep
// continues mid-trace instead of starting over.
func runCell(ctx context.Context, drain <-chan struct{}, stream batchStream, newP func() bp.Predictor, cfg Config, jc *cellJournal) (*Result, error) {
	start := time.Now()
	col := cfg.Metrics
	loop := newRunLoop(cfg)
	p := newP()
	var consumed, toSkip, lastCkpt uint64
	every := uint64(0)
	if jc != nil {
		if _, ok := p.(bp.Checkpointer); ok {
			every = jc.every
		}
		if rec, ok := jc.j.Checkpoint(jc.key); ok {
			if err := restoreCellState(rec.State, loop, p); err != nil {
				loop.stats.release()
				loop, p = newRunLoop(cfg), newP() // bad checkpoint: restart clean
			} else {
				consumed, toSkip, lastCkpt = rec.Events, rec.Events, rec.Events
			}
		}
	}
	for {
		if err := interruptErr(ctx, drain); err != nil {
			if errors.Is(err, faults.ErrDrained) {
				col.Ctr(obs.CtrDraining).Store(1)
				if every > 0 && consumed > lastCkpt {
					if cerr := jc.checkpoint(loop, p, consumed); cerr != nil {
						return nil, cerr
					}
				}
			}
			return nil, err
		}
		b, err := stream.next()
		if err != nil {
			if err == io.EOF {
				return loop.result(p, cfg, true, start), nil
			}
			return nil, err
		}
		if toSkip >= uint64(len(b)) {
			// Entirely inside the restored prefix: the loop and predictor
			// already account for these events.
			toSkip -= uint64(len(b))
			continue
		}
		b = b[toSkip:]
		toSkip = 0
		simStage := loop.stage()
		tSim := col.Now()
		stop := loop.process(b, p)
		col.Stage(simStage).Since(tSim)
		col.Ctr(obs.CtrEvents).Add(uint64(len(b)))
		consumed += uint64(len(b))
		if stop {
			// Instruction limit hit: a pending decode error past the stop
			// point is moot.
			return loop.result(p, cfg, false, start), nil
		}
		if every > 0 && consumed-lastCkpt >= every {
			if err := jc.checkpoint(loop, p, consumed); err != nil {
				return nil, err
			}
			lastCkpt = consumed
		}
	}
}
