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

// batch is one unit of prefetched work: the decoded records, the view of
// the stream's table that covers them, and the error, if any, that ended
// the batch ("error after n" — recs is valid even when err is non-nil,
// including io.EOF).
type batch struct {
	recs []tracecache.Record
	view tracecache.View
	err  error
}

// prefetcher decodes ahead of the simulation loop: a single producer
// goroutine owns the reader and double-buffers batches — including any
// decompression the reader performs underneath, and the interning of each
// batch into the stream's own static table — while the consumer simulates
// the previous batch.
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
	filled  chan batch                        // producer -> consumer, decoded batches
	free    chan []tracecache.Record          // consumer -> producer, recycled buffers
	done    chan struct{}                     // closed to request producer shutdown
	stopped chan struct{}                     // closed by the producer on exit
	once    sync.Once                         // guards close(done)
	col     *obs.Collector                    // nil when metrics are disabled
	tab     *tracecache.Table                 // the stream's own table, interned by the producer
	evs     *[tracecache.BatchEvents]bp.Event // the producer's decode buffer
}

// Prefetch buffers and tables are recycled across runs. Allocating and
// zeroing fresh buffers, or regrowing a table, costs about as much as
// simulating a few thousand branches, which would otherwise dominate runs
// over short traces. Events and records hold no pointers, so pooled
// buffers cost the collector nothing.
var (
	eventBufs  = sync.Pool{New: func() any { return new([tracecache.BatchEvents]bp.Event) }}
	recordBufs = sync.Pool{New: func() any { return new([tracecache.BatchEvents]tracecache.Record) }}
	tablePool  = sync.Pool{New: func() any { return tracecache.NewTable() }}
)

// releaseTable empties a private table and returns it to its pool.
func releaseTable(t *tracecache.Table) {
	t.Reset()
	tablePool.Put(t)
}

// startPrefetch launches the producer goroutine reading from r in batches
// of up to tracecache.BatchEvents events. Ownership of r passes to the
// prefetcher until shutdown returns. col may be nil (metrics disabled).
func startPrefetch(r bp.Reader, col *obs.Collector) *prefetcher {
	pf := &prefetcher{
		filled:  make(chan batch, 1),
		free:    make(chan []tracecache.Record, 2),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		col:     col,
		tab:     tablePool.Get().(*tracecache.Table),
		evs:     eventBufs.Get().(*[tracecache.BatchEvents]bp.Event),
	}
	// Two buffers: one being consumed, one being filled. With filled
	// buffered to depth 1, the producer can stay one full batch ahead.
	pf.free <- recordBufs.Get().(*[tracecache.BatchEvents]tracecache.Record)[:]
	pf.free <- recordBufs.Get().(*[tracecache.BatchEvents]tracecache.Record)[:]
	go pf.produce(r)
	return pf
}

func (pf *prefetcher) produce(r bp.Reader) {
	defer close(pf.stopped)
	col := pf.col
	for {
		var buf []tracecache.Record
		tStall := col.Now()
		select {
		case <-pf.done:
			return
		case buf = <-pf.free:
		}
		col.Stage(obs.StageProduceStall).Since(tStall)
		var n int
		var err error
		timedRead(col, func() { n, err = readBatchSafe(r, pf.evs[:]) })
		recs, ierr := pf.tab.Intern(buf[:0], pf.evs[:n])
		if ierr != nil {
			err = ierr
		}
		select {
		case <-pf.done:
			return
		case pf.filled <- batch{recs: recs, view: pf.tab.View(), err: err}:
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
func (pf *prefetcher) recycle(buf []tracecache.Record) {
	select {
	case pf.free <- buf[:cap(buf)]:
	default:
		// Producer already stopped and both buffers are back: drop it.
	}
}

// shutdown stops the producer and blocks until it no longer touches the
// reader, then returns the recycled buffers and the table to their pools.
// Safe to call multiple times; prefetchStream.close calls it so that early
// returns (decode error, instruction limit) cannot leak the goroutine or
// race the caller's file close. A buffer the consumer still holds is not
// returned to the pool.
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
	if pf.tab != nil {
		eventBufs.Put(pf.evs)
		releaseTable(pf.tab)
		pf.evs, pf.tab = nil, nil
	}
	for {
		select {
		case buf := <-pf.free:
			recordBufs.Put((*[tracecache.BatchEvents]tracecache.Record)(buf[:tracecache.BatchEvents]))
		default:
			return
		}
	}
}

// batchStream is how a cell consumes its trace: a chunk-by-chunk walk
// through the cache (cachedStream) or a prefetching reader. next returns a
// non-empty batch of records with a view of the trace's static table that
// covers them, or io.EOF on clean exhaustion, or a decode error — always
// after every record decoded before the error was delivered. A batch stays
// valid until the next call, a view until close. close releases what the
// stream holds (cache pins, the prefetch goroutine, the trace file); the
// stream is unusable afterwards.
type batchStream interface {
	next() ([]tracecache.Record, tracecache.View, error)
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
	cur    []tracecache.Record // the batch last delivered, recycled on the next call
	err    error               // terminal error held back behind cur
}

func newPrefetchStream(r bp.Reader, closer io.Closer, col *obs.Collector) *prefetchStream {
	return &prefetchStream{pf: startPrefetch(r, col), closer: closer, col: col}
}

func (s *prefetchStream) next() ([]tracecache.Record, tracecache.View, error) {
	for {
		if s.cur != nil {
			s.pf.recycle(s.cur)
			s.cur = nil
		}
		if s.err != nil {
			return nil, tracecache.View{}, s.err
		}
		tWait := s.col.Now()
		b, ok := s.pf.next()
		s.col.Stage(obs.StagePrefetchStall).Since(tWait)
		if !ok {
			// The producer closes filled only after a terminal batch, which
			// set s.err above; it cannot end the stream silently.
			return nil, tracecache.View{}, io.ErrUnexpectedEOF
		}
		s.cur, s.err = b.recs, b.err
		if len(b.recs) > 0 {
			return b.recs, b.view, nil
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

// errStaleCheckpoint reports a restored checkpoint that does not describe
// the trace: once its prefix was skipped, the trace's first branches are
// not the addresses it lists. The cell reruns from the start.
var errStaleCheckpoint = errors.New("sim: checkpoint does not match the trace")

// runCell is one simulation cell: Run and every SweepParallel cell drive
// a fresh predictor from newP over a batch stream from open, as runStream's
// one lane. Between batches runStream observes the drain and the context;
// with jc it restores the cell's journalled checkpoint, checkpoints every
// jc.every records, and checkpoints again on a drain before the drained
// error returns, so a resumed sweep continues mid-trace. A checkpoint that
// turns out not to match the trace is dropped and the cell reruns on a
// fresh stream. With a nil jc and a nil drain it is the plain loop of Run.
func runCell(ctx context.Context, drain <-chan struct{}, open func() (batchStream, error), newP func() bp.Predictor, cfg Config, jc *cellJournal) (*Result, error) {
	start := time.Now()
	var res *Result
	newPs := []func() bp.Predictor{newP}
	finish := func(lanes []lane, exhausted bool) { res = lanes[0].loop.result(lanes[0].p, cfg, exhausted, start) }
	err := runStream(ctx, drain, open, newPs, cfg, jc, true, finish)
	if err == errStaleCheckpoint {
		err = runStream(ctx, drain, open, newPs, cfg, jc, false, finish)
	}
	return res, err // res is nil unless a stream finished
}

// lane is one predictor a stream feeds and the runLoop that accounts it.
type lane struct {
	p    bp.Predictor
	loop *runLoop
}

// runStream is the one stream driver: it opens a stream and feeds every
// batch to one lane per constructor in newPs, in order, so all lanes stop
// at the same record. A cell is one lane (runCell), Compare two. At the end
// of the trace or the instruction limit, finish reads the lanes while the
// stream's view is valid. jc journals a cell's one lane; restore asks for
// jc's checkpoint to be restored first.
func runStream(ctx context.Context, drain <-chan struct{}, open func() (batchStream, error), newPs []func() bp.Predictor, cfg Config, jc *cellJournal, restore bool, finish func(lanes []lane, exhausted bool)) error {
	col := cfg.Metrics
	stream, err := open()
	if err != nil {
		return err
	}
	defer stream.close()
	lanes := make([]lane, len(newPs))
	for i, newP := range newPs {
		lanes[i] = lane{p: newP(), loop: newRunLoop(cfg)}
	}
	defer func() {
		for _, ln := range lanes {
			ln.loop.release() // idempotent: result releases too
		}
	}()
	ln := &lanes[0] // the lane jc journals and that decides the stage
	var consumed, toSkip, lastCkpt uint64
	every := uint64(0)
	verify := false      // a restored checkpoint awaits its check
	var skippedHW uint32 // 1 + the highest IP id of the skipped records
	if jc != nil {
		if _, ok := ln.p.(bp.Checkpointer); ok {
			every = jc.every
		}
		if rec, ok := jc.j.Checkpoint(jc.key); ok && restore {
			if err := restoreCellState(rec.State, ln.loop, ln.p); err != nil {
				ln.loop.release()
				*ln = lane{p: newPs[0](), loop: newRunLoop(cfg)} // bad checkpoint: restart clean
			} else {
				consumed, toSkip, lastCkpt = rec.Events, rec.Events, rec.Events
				verify = true
			}
		}
	}
	for {
		if err := interruptErr(ctx, drain); err != nil {
			if errors.Is(err, faults.ErrDrained) {
				col.Ctr(obs.CtrDraining).Store(1)
				if every > 0 && consumed > lastCkpt {
					if cerr := jc.checkpoint(ln.loop, ln.p, consumed); cerr != nil {
						return cerr
					}
				}
			}
			return err
		}
		b, v, err := stream.next()
		if err != nil && err != io.EOF {
			return err
		}
		if verify {
			// Skip the restored prefix: the loop and predictor already
			// account for these records. Then the checkpoint must name the
			// trace's first branches, in order.
			n := min(toSkip, uint64(len(b)))
			for _, r := range b[:n] {
				skippedHW = max(skippedHW, v.Statics[r.ID].IPID+1)
			}
			toSkip -= n
			b = b[n:]
			if toSkip > 0 && err == nil {
				continue
			}
			if toSkip > 0 || !ln.loop.matches(v, skippedHW) {
				return errStaleCheckpoint
			}
			verify = false
			ln.loop.setView(v)
		}
		if err == io.EOF {
			finish(lanes, true)
			return nil
		}
		if len(b) == 0 {
			continue
		}
		simStage := ln.loop.stage()
		tSim := col.Now()
		stop := false
		for i := range lanes {
			if lanes[i].loop.process(b, v, lanes[i].p) {
				stop = true
			}
		}
		col.Stage(simStage).Since(tSim)
		col.Ctr(obs.CtrEvents).Add(uint64(len(b)))
		consumed += uint64(len(b))
		if stop {
			// Instruction limit hit: a pending decode error past the stop
			// point is moot.
			finish(lanes, false)
			return nil
		}
		if every > 0 && consumed-lastCkpt >= every {
			if err := jc.checkpoint(ln.loop, ln.p, consumed); err != nil {
				return err
			}
			lastCkpt = consumed
		}
	}
}
