package sim

import (
	"context"
	"errors"
	"io"
	"runtime/debug"
	"slices"
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

// prefetchStream reads a trace straight from its reader, decoding ahead of
// the lanes: a producer goroutine owns the reader and double-buffers
// batches — including any decompression the reader performs underneath,
// and the interning of each batch into the stream's own static table —
// while the lanes simulate the previous batch. A terminal error arriving
// with a non-empty batch is held back until that batch was delivered. It
// is the only stream that waits on a producer, so it alone times
// obs.StagePrefetchStall.
//
// Lifecycle rules (see DESIGN.md):
//
//   - The producer goroutine is the only one touching the reader after
//     newPrefetchStream returns.
//   - close blocks until the producer has stopped touching the reader,
//     so the trace file may be closed as soon as it returns.
//   - The producer stops at the first error (errors are sticky per the
//     bp.BatchReader contract) or when close is called.
//   - A panic inside the reader is recovered in the producer and surfaced
//     as a *faults.PanicError batch error, keeping the process alive and
//     the fault classifiable (faults.Class reports "panic"), exactly as a
//     predictor panic is inside a SweepParallel cell.
type prefetchStream struct {
	filled  chan batch                        // producer -> consumer, decoded batches
	free    chan []tracecache.Record          // consumer -> producer, recycled buffers
	done    chan struct{}                     // closed by close to stop the producer
	stopped chan struct{}                     // closed by the producer on exit
	col     *obs.Collector                    // nil when metrics are disabled
	tab     *tracecache.Table                 // the stream's own table, interned by the producer
	evs     *[tracecache.BatchEvents]bp.Event // the producer's decode buffer
	closer  io.Closer                         // closed once the producer has stopped; may be nil

	cur []tracecache.Record // the batch last delivered, recycled on the next call
	err error               // terminal error held back behind cur
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

// newPrefetchStream launches the producer goroutine reading from r in
// batches of up to tracecache.BatchEvents events. Ownership of r passes to
// the stream until close returns; closer, if not nil, is closed then. col
// may be nil (metrics disabled).
func newPrefetchStream(r bp.Reader, closer io.Closer, col *obs.Collector) *prefetchStream {
	s := &prefetchStream{
		filled:  make(chan batch, 1),
		free:    make(chan []tracecache.Record, 2),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
		col:     col,
		tab:     tablePool.Get().(*tracecache.Table),
		evs:     eventBufs.Get().(*[tracecache.BatchEvents]bp.Event),
		closer:  closer,
	}
	// Two buffers: one being consumed, one being filled. With filled
	// buffered to depth 1, the producer can stay one full batch ahead.
	s.free <- recordBufs.Get().(*[tracecache.BatchEvents]tracecache.Record)[:]
	s.free <- recordBufs.Get().(*[tracecache.BatchEvents]tracecache.Record)[:]
	go s.produce(r)
	return s
}

func (s *prefetchStream) produce(r bp.Reader) {
	defer close(s.stopped)
	col := s.col
	for {
		var buf []tracecache.Record
		tStall := col.Now()
		select {
		case <-s.done:
			return
		case buf = <-s.free:
		}
		col.Stage(obs.StageProduceStall).Since(tStall)
		var n int
		var err error
		timedRead(col, func() { n, err = readBatchSafe(r, s.evs[:]) })
		recs, ierr := s.tab.Intern(buf[:0], s.evs[:n])
		if ierr != nil {
			err = ierr
		}
		select {
		case <-s.done:
			return
		case s.filled <- batch{recs: recs, view: s.tab.View(), err: err}:
		}
		if err != nil {
			// Errors are sticky; further reads would return (0, err)
			// forever. Close filled so the consumer sees end-of-stream
			// after draining this batch.
			close(s.filled)
			return
		}
	}
}

// timedRead runs one decode step, a batch read from a trace stream, and
// records it as one read. obs.StageRead,
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

// recycle hands the batch last delivered back to the producer. Once the
// producer has stopped and both buffers are back, it is dropped.
func (s *prefetchStream) recycle() {
	if s.cur == nil {
		return
	}
	select {
	case s.free <- s.cur[:cap(s.cur)]:
	default:
	}
	s.cur = nil
}

func (s *prefetchStream) next() ([]tracecache.Record, tracecache.View, error) {
	for {
		s.recycle()
		if s.err != nil {
			return nil, tracecache.View{}, s.err
		}
		tWait := s.col.Now()
		b, ok := <-s.filled
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

// close stops the producer and blocks until it no longer touches the
// reader, then closes the trace file and returns the buffers and the table
// to their pools. It runs once per stream, so early returns (decode error,
// instruction limit) cannot leak the goroutine or race the file close. A
// buffer still in flight is left to the collector.
func (s *prefetchStream) close() {
	s.recycle()
	close(s.done)
	// Drain filled so a producer blocked on delivery can proceed, until the
	// producer signals it has exited (and thus no longer touches the
	// reader). Discarded batches are left to the collector.
	for stopped := false; !stopped; {
		select {
		case <-s.filled:
		case <-s.stopped:
			stopped = true
		}
	}
	if s.closer != nil {
		s.closer.Close() //mbpvet:ignore droppederr -- read side: a close failure cannot corrupt the already-consumed trace
	}
	eventBufs.Put(s.evs)
	releaseTable(s.tab)
	for {
		select {
		case buf := <-s.free:
			recordBufs.Put((*[tracecache.BatchEvents]tracecache.Record)(buf[:tracecache.BatchEvents]))
		default:
			return
		}
	}
}

// batchStream is how a reading consumes its trace: a replay of the whole
// trace from the cache (cachedStream) or a prefetching reader. next returns a
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

// lane is one predictor a stream feeds, a cell of its own. A lane with a
// nil loop sits out the current reading.
type lane struct {
	id   int // the caller's index of the lane
	newP func() bp.Predictor
	jc   *cellJournal // nil: not journalled
	p    bp.Predictor
	loop *runLoop

	every    uint64 // checkpoint interval; 0 = none
	fresh    bool   // its checkpoint went stale: never restore it again
	verify   bool   // a restored checkpoint awaits its check
	skip     uint64 // records of the restored prefix still to pass over
	skipHW   uint32 // 1 + the highest IP id of the records passed over
	consumed uint64 // records accounted, the restored prefix included
	lastCkpt uint64

	sim     time.Duration // time spent on this lane alone
	ended   bool
	err     error         // why the lane failed; nil if it finished
	elapsed time.Duration // its time when it ended: the shared time plus sim
}

// begin readies ln for a reading: a fresh predictor and loop and, unless
// it went stale before, its journalled checkpoint. A checkpoint that does
// not restore is dropped and the lane starts clean.
func (ln *lane) begin(cfg Config) {
	ln.p, ln.loop = ln.newP(), newRunLoop(cfg)
	ln.verify, ln.skip, ln.skipHW, ln.consumed, ln.lastCkpt = false, 0, 0, 0, 0
	if ln.jc == nil {
		return
	}
	if _, ok := ln.p.(bp.Checkpointer); ok {
		ln.every = ln.jc.every
	}
	if rec, ok := ln.jc.j.Checkpoint(ln.jc.key); ok && !ln.fresh {
		if err := restoreCellState(rec.State, ln.loop, ln.p); err != nil {
			ln.loop.release()
			ln.p, ln.loop = ln.newP(), newRunLoop(cfg)
			return
		}
		ln.skip, ln.consumed, ln.lastCkpt, ln.verify = rec.Events, rec.Events, rec.Events, true
	}
}

// settle checks a restored checkpoint once its prefix is behind or the
// reading ended: the skipped records must have seen exactly its branches,
// the trace's first ones, in order. A stale checkpoint takes the lane out
// of the reading, to rerun fresh in the next one.
func (ln *lane) settle(v tracecache.View) {
	ln.verify = false
	if ln.skip > 0 || !ln.loop.matches(v, ln.skipHW) {
		ln.fresh = true
		ln.loop.release()
		ln.loop = nil
		return
	}
	ln.loop.setView(v)
}

func (ln *lane) checkpoint() error {
	err := ln.jc.checkpoint(ln.loop, ln.p, ln.consumed)
	if err == nil {
		ln.lastCkpt = ln.consumed
	}
	return err
}

// result is the Result of a finished lane, or the error it failed with.
func (ln *lane) result(cfg Config, exhausted bool) (res *Result, err error) {
	if ln.err != nil {
		return nil, ln.err
	}
	err = guarded(func() error {
		res = ln.loop.result(ln.p, cfg, exhausted, ln.elapsed)
		return nil
	})
	return res, err
}

// guarded runs f, turning a panic into a typed error with its stack.
func guarded(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = faults.NewPanicError(v, debug.Stack())
		}
	}()
	return f()
}

// prepared is a batch made ready once for all lanes of a reading, by the
// first lane to take the fast path: its branches gathered from the view,
// one accounting word per record, the instructions it retires and 1 + its
// highest IP id. The lanes share the prediction buffer as well: they run
// one after another, and accounting reads back only the entries of
// conditional branches, which each lane's own simulation wrote. Kernels
// must not modify branches (bp.BatchPredictor).
type prepared struct {
	ready    bool // the current batch is prepared
	span     uint64
	hw       uint32
	branches []bp.Branch
	// acc is IP id<<2 | taken<<1 | conditional per record. IP ids fit in
	// 30 bits: a trace with 2^30 distinct addresses would hold 8 GiB of
	// them.
	acc   []uint32
	preds []bp.Prediction
}

// preparedBufs recycles the groups' batch buffers like recordBufs, so a
// group of one lane (Run) allocates nothing for them in steady state. The
// buffers hold no pointers.
var preparedBufs = sync.Pool{New: func() any { return new(prepared) }}

// prepare makes b, whose ids index v, the prepared batch unless it
// already is. It always prepares the whole batch, whatever prefix a lane
// passes over.
func (pb *prepared) prepare(b []tracecache.Record, v tracecache.View) {
	if pb.ready {
		return
	}
	n := len(b)
	if cap(pb.branches) < n {
		pb.branches = make([]bp.Branch, n)
		pb.acc = make([]uint32, n)
		pb.preds = make([]bp.Prediction, n)
	}
	branches, acc := pb.branches[:n], pb.acc[:n]
	statics := v.Statics
	span, hw := uint64(n), uint32(0)
	for i, r := range b {
		s := &statics[r.ID]
		branches[i] = s.Branch(r)
		acc[i] = s.IPID<<2 | uint32(b2u(r.Taken()))<<1 | uint32(b2u(s.Opcode.IsConditional()))
		span += r.Gap()
		hw = max(hw, s.IPID+1)
	}
	pb.branches, pb.acc, pb.preds = branches, acc, pb.preds[:n]
	pb.ready, pb.span, pb.hw = true, span, hw
}

// group is the one stream driver: Run is a group of one lane, Compare of
// two, a sweep's trace group of one per predictor. A reading feeds every
// batch of one stream to each lane in turn, so all lanes stop at the same
// record. A panic in a lane's code fails that lane alone; a stream error,
// a drain or a cancellation, every lane of the reading. A lane's time is
// the shared time (opens, waits, reads) plus its own; past the timeout it
// fails as a deadline fault between batches. end reports lanes as they
// end: a failed one at once, the finished ones together while the
// stream's view is valid.
type group struct {
	ctx     context.Context
	drain   <-chan struct{}
	open    func() (batchStream, error)
	cfg     Config
	timeout time.Duration // per lane; 0 = none
	lanes   []*lane
	end     func(ended []*lane, exhausted bool)

	start  time.Time
	simSum time.Duration // the lanes' sim, summed
}

// run reads the trace until every lane has ended: a lane whose checkpoint
// went stale reruns in a second reading. A panic outside the lanes' own
// code fails every lane still live.
func (g *group) run() {
	g.start = time.Now()
	defer func() {
		if v := recover(); v != nil {
			g.endLanes(g.live(), faults.NewPanicError(v, debug.Stack()), false)
		}
	}()
	for live := g.live(); len(live) > 0; live = g.live() {
		g.read(live)
	}
}

func (g *group) live() []*lane {
	return slices.DeleteFunc(slices.Clone(g.lanes), func(ln *lane) bool { return ln.ended })
}

// reading drops the lanes that ended or sit out the reading, in place.
func reading(lanes []*lane) []*lane {
	return slices.DeleteFunc(lanes, func(ln *lane) bool { return ln.ended || ln.loop == nil })
}

// read is one reading of the trace for lanes.
func (g *group) read(lanes []*lane) {
	stream, err := g.open()
	if err != nil {
		g.endLanes(lanes, err, false)
		return
	}
	defer stream.close()
	for _, ln := range lanes {
		if err := guarded(func() error { ln.begin(g.cfg); return nil }); err != nil {
			g.endLanes([]*lane{ln}, err, false)
		}
	}
	pb := preparedBufs.Get().(*prepared)
	defer preparedBufs.Put(pb)
	col := g.cfg.Metrics
	for lanes = reading(lanes); len(lanes) > 0; lanes = reading(lanes) {
		if err := interruptErr(g.ctx, g.drain); err != nil {
			// On a drain each lane checkpoints what it consumed since its
			// last checkpoint, so a resumed sweep continues mid-trace.
			drained := errors.Is(err, faults.ErrDrained)
			if drained {
				col.Ctr(obs.CtrDraining).Store(1)
			}
			for _, ln := range lanes {
				if drained && ln.every > 0 && ln.consumed > ln.lastCkpt {
					if cerr := guarded(ln.checkpoint); cerr != nil {
						ln.err = cerr
					}
				}
			}
			g.endLanes(lanes, err, false)
			return
		}
		expired := false
		for _, ln := range lanes {
			if g.timeout > 0 && time.Since(g.start)-(g.simSum-ln.sim) >= g.timeout {
				g.endLanes([]*lane{ln}, mapDeadline(context.DeadlineExceeded), false)
				expired = true
			}
		}
		if expired {
			continue
		}
		b, v, err := stream.next()
		if err != nil && err != io.EOF {
			g.endLanes(lanes, err, false)
			return
		}
		stop := err == io.EOF
		pb.ready = false
		var events uint64
		for _, ln := range lanes {
			off := 0
			if ln.verify {
				// Pass over the prefix the restored state accounts for.
				n := min(ln.skip, uint64(len(b)))
				for _, r := range b[:n] {
					ln.skipHW = max(ln.skipHW, v.Statics[r.ID].IPID+1)
				}
				if ln.skip -= n; ln.skip == 0 {
					ln.settle(v)
				}
				if off = int(n); ln.verify || ln.loop == nil {
					continue
				}
			}
			if off == len(b) {
				continue
			}
			stage, t := ln.loop.stage(), time.Now()
			var limit bool
			err := guarded(func() error {
				limit = ln.loop.process(b, off, v, ln.p, pb)
				ln.consumed += uint64(len(b) - off)
				if !limit && ln.every > 0 && ln.consumed-ln.lastCkpt >= ln.every {
					return ln.checkpoint()
				}
				return nil
			})
			d := time.Since(t)
			ln.sim, g.simSum = ln.sim+d, g.simSum+d
			col.Stage(stage).Add(d)
			if err != nil {
				g.endLanes([]*lane{ln}, err, false)
				continue
			}
			events = max(events, uint64(len(b)-off)) // each record of the stream counts once
			stop = stop || limit
		}
		col.Ctr(obs.CtrEvents).Add(events)
		if stop {
			// The end of the trace or the instruction limit: a pending
			// decode error past the stop point is moot.
			lanes = reading(lanes)
			for _, ln := range lanes {
				if ln.verify {
					ln.settle(v)
				}
			}
			if lanes = reading(lanes); len(lanes) > 0 {
				g.endLanes(lanes, nil, err == io.EOF)
			}
			return
		}
	}
}

// endLanes ends lanes, failed with err unless nil (a lane keeps an error
// of its own), stamps their time, reports them and returns their counters
// to the pool.
func (g *group) endLanes(lanes []*lane, err error, exhausted bool) {
	now := time.Since(g.start)
	for _, ln := range lanes {
		ln.ended, ln.elapsed = true, now-(g.simSum-ln.sim)
		if ln.err == nil {
			ln.err = err
		}
	}
	g.end(lanes, exhausted)
	for _, ln := range lanes {
		ln.loop.release()
	}
}

// runCell is one simulation cell, a group of one lane: a fresh predictor
// from newP over a batch stream from open, observing ctx and the drain
// between batches. With jc it restores the cell's journalled checkpoint,
// checkpoints every jc.every records and again on a drain, and reruns on a
// fresh stream when the checkpoint turns out not to match the trace. With
// a nil jc and a nil drain it is the plain loop of Run.
func runCell(ctx context.Context, drain <-chan struct{}, open func() (batchStream, error), newP func() bp.Predictor, cfg Config, jc *cellJournal) (res *Result, err error) {
	ln := &lane{newP: newP, jc: jc}
	g := &group{ctx: ctx, drain: drain, open: open, cfg: cfg, lanes: []*lane{ln},
		end: func(_ []*lane, exhausted bool) { res, err = ln.result(cfg, exhausted) }}
	g.run()
	return res, err
}
