package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mbplib/internal/bp"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
)

// This file is the benchmark's tracer. It times calls into each layer's
// public functions from outside, by wrapping the values the benchmark hands
// to the program: the io.Reader that compress returns, the bp.Reader that
// sbbt returns, the predictor the registry builds, and the Open/OpenChunked
// functions of sim.TraceSource. Nothing inside the program is changed.
//
// Clocks are summed into atomic counters; counters that one cell updates
// per branch live in the wrapper itself and are folded into the shared
// totals once, at the end of the cell, so two sweep workers never share a
// hot cache line.

// sampleEvery is the scalar-path sampling period. Timing every Predict,
// Train and Track call would cost more than most predictors do; timing one
// event in sampleEvery and scaling keeps the overhead to a few percent.
const sampleEvery = 16

// layers accumulates the per-layer clocks and counts of one traced phase,
// plus its spans. A nil *layers is the untraced state: every wrapper
// constructor returns its argument unchanged.
type layers struct {
	epoch time.Time
	// clockNs is the measured cost of one empty timed interval, subtracted
	// from each sampled scalar call.
	clockNs int64

	compressNs, compressBytes atomic.Int64 // inside compress's io.Reader
	sbbtNs, sbbtEvents        atomic.Int64 // inside sbbt's ReadBatch, less the compress reads it made
	chunkNs, chunkEvents      atomic.Int64 // inside OpenChunked traces' DecodeChunk
	simNs                     atomic.Int64 // inside sim.Run (table3 consumer time)

	mu       sync.Mutex
	preds    map[string]*predStats
	cellEnds []float64 // seconds since epoch at which each cell finished
	spans    []span
}

func newLayers() *layers {
	l := &layers{epoch: time.Now(), preds: map[string]*predStats{}}
	l.clockNs = l.calibrate()
	return l
}

// now reads the tracer's clock; 0 when untraced.
func (l *layers) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.epoch))
}

// calibrate measures the smallest interval two back-to-back clock reads
// report: the fixed cost each timed call adds to what it measures.
func (l *layers) calibrate() int64 {
	best := int64(1 << 62)
	for i := 0; i < 2000; i++ {
		t := l.now()
		if d := l.now() - t; d < best {
			best = d
		}
	}
	return best
}

// predStats is the clock of one predictor family across cells.
type predStats struct {
	kernel       bool
	kernelNs     atomic.Int64
	kernelEvents atomic.Int64
	sampledNs    atomic.Int64
	sampled      atomic.Int64
	scalarEvents atomic.Int64
}

// seconds estimates the predictor's total self time: kernel calls are all
// timed; the scalar path is scaled up from its samples.
func (s *predStats) seconds() float64 {
	ns := float64(s.kernelNs.Load())
	if n := s.sampled.Load(); n > 0 {
		ns += float64(s.sampledNs.Load()) * float64(s.scalarEvents.Load()) / float64(n)
	}
	return ns / 1e9
}

func (s *predStats) events() int64 { return s.kernelEvents.Load() + s.scalarEvents.Load() }

// predictorLabel names a registry spec's family: "twolevel:variant=GAs"
// and "gshare:h=12,t=14" become "twolevel" and "gshare".
func predictorLabel(spec string) string {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i]
	}
	return spec
}

func (l *layers) stats(label string, kernel bool) *predStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.preds[label]
	if st == nil {
		st = &predStats{kernel: kernel}
		l.preds[label] = st
	}
	return st
}

// predictor wraps p so its calls are timed. The wrapper keeps p's
// capabilities: it is a bp.BatchPredictor exactly when p is one, and it
// forwards Metadata and Statistics, so results are byte-identical.
func (l *layers) predictor(spec string, p bp.Predictor) bp.Predictor {
	if l == nil {
		return p
	}
	k, isKernel := p.(bp.BatchPredictor)
	w := &timedPredictor{p: p, l: l, st: l.stats(predictorLabel(spec), isKernel)}
	if isKernel {
		return &timedKernel{timedPredictor: w, k: k}
	}
	return w
}

type timedPredictor struct {
	p  bp.Predictor
	l  *layers
	st *predStats

	events   int64 // events seen on the scalar path (Track calls)
	sampling bool  // the current event is timed
	acc      int64 // timed ns of the current event
	calls    int64 // timed calls of the current event
	sampleNs int64
	samples  int64

	kernelNs, kernelEvents int64
}

//mbpvet:impure timing instrumentation: Predict forwards to the wrapped predictor and only advances the wrapper's own clock, so predictions are unchanged
func (w *timedPredictor) Predict(ip uint64) bool {
	if !w.sampling {
		return w.p.Predict(ip)
	}
	t := w.l.now()
	v := w.p.Predict(ip)
	w.acc += w.l.now() - t
	w.calls++
	return v
}

func (w *timedPredictor) Train(b bp.Branch) {
	if !w.sampling {
		w.p.Train(b)
		return
	}
	t := w.l.now()
	w.p.Train(b)
	w.acc += w.l.now() - t
	w.calls++
}

func (w *timedPredictor) Track(b bp.Branch) {
	if w.sampling {
		t := w.l.now()
		w.p.Track(b)
		w.acc += w.l.now() - t
		w.calls++
		if d := w.acc - w.calls*w.l.clockNs; d > 0 {
			w.sampleNs += d
		}
		w.samples++
		w.acc, w.calls = 0, 0
	} else {
		w.p.Track(b)
	}
	w.events++
	w.sampling = w.events%sampleEvery == 0
}

func (w *timedPredictor) Metadata() map[string]any {
	if mp, ok := w.p.(bp.MetadataProvider); ok {
		return mp.Metadata()
	}
	return map[string]any{}
}

// Statistics is called once, when the simulator assembles a cell's result:
// the wrapper folds its counts into the shared totals and records the end
// of the cell.
func (w *timedPredictor) Statistics() map[string]any {
	w.st.kernelNs.Add(w.kernelNs)
	w.st.kernelEvents.Add(w.kernelEvents)
	w.st.sampledNs.Add(w.sampleNs)
	w.st.sampled.Add(w.samples)
	w.st.scalarEvents.Add(w.events)
	w.kernelNs, w.kernelEvents, w.sampleNs, w.samples, w.events = 0, 0, 0, 0, 0
	w.l.cellEnd()
	if sp, ok := w.p.(bp.StatsProvider); ok {
		return sp.Statistics()
	}
	return map[string]any{}
}

type timedKernel struct {
	*timedPredictor
	k bp.BatchPredictor
}

func (w *timedKernel) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	w.k.PredictBatch(branches, out)
}

func (w *timedKernel) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	t := w.l.now()
	w.k.TrainBatch(branches, out)
	w.kernelNs += w.l.now() - t
	w.kernelEvents += int64(len(branches))
}

func (l *layers) cellEnd() {
	t := time.Since(l.epoch).Seconds()
	l.mu.Lock()
	l.cellEnds = append(l.cellEnds, t)
	l.mu.Unlock()
}

// newSBBTReader opens an SBBT reader over the io.Reader that compress
// returned, wrapping both when tracing. Decompression is not nested in
// packet decode — an MLZ block decodes whole on the first read, which
// NewReader's header read makes — so each reader keeps its own clock and
// packet decode is timed as ReadBatch less the compress reads inside it.
func (l *layers) newSBBTReader(f io.Reader) (bp.Reader, error) {
	if l == nil {
		return sbbt.NewReader(f)
	}
	in := &timedReader{r: f, l: l}
	r, err := sbbt.NewReader(in)
	if err != nil {
		return nil, err
	}
	return &timedTraceReader{r: r, l: l, in: in}, nil
}

type timedReader struct {
	r  io.Reader
	l  *layers
	ns int64 // this reader's own total, for the packet decoder's self time
}

func (t *timedReader) Read(p []byte) (int, error) {
	s := t.l.now()
	n, err := t.r.Read(p)
	d := t.l.now() - s
	t.ns += d
	t.l.compressNs.Add(d)
	t.l.compressBytes.Add(int64(n))
	return n, err
}

// timedTraceReader keeps the batch and size capabilities the simulator
// looks for.
type timedTraceReader struct {
	r  *sbbt.Reader
	l  *layers
	in *timedReader
}

func (t *timedTraceReader) Read() (bp.Event, error) {
	inner := t.in.ns
	s := t.l.now()
	ev, err := t.r.Read()
	t.l.sbbtNs.Add(t.l.now() - s - (t.in.ns - inner))
	if err == nil {
		t.l.sbbtEvents.Add(1)
	}
	return ev, err
}

func (t *timedTraceReader) ReadBatch(dst []bp.Event) (int, error) {
	inner := t.in.ns
	s := t.l.now()
	n, err := t.r.ReadBatch(dst)
	t.l.sbbtNs.Add(t.l.now() - s - (t.in.ns - inner))
	t.l.sbbtEvents.Add(int64(n))
	return n, err
}

func (t *timedTraceReader) TotalInstructions() uint64 { return t.r.TotalInstructions() }
func (t *timedTraceReader) TotalBranches() uint64     { return t.r.TotalBranches() }

// sources wraps the Open and OpenChunked functions of a resolved sweep's
// trace sources. Open is replaced by the same open sequence the sweep
// package uses (compress, then sbbt) with both readers wrapped; the
// chunked trace OpenChunked returns is wrapped as is.
func (l *layers) sources(in []sim.TraceSource) []sim.TraceSource {
	if l == nil {
		return in
	}
	out := append([]sim.TraceSource(nil), in...)
	for i := range out {
		path := out[i].Name
		out[i].Open = func() (bp.Reader, io.Closer, error) { return openTrace(path, l) }
		if open := out[i].OpenChunked; open != nil {
			out[i].OpenChunked = func() (sim.ChunkedTrace, error) {
				ct, err := open()
				if err != nil {
					return nil, err
				}
				return &timedChunked{ChunkedTrace: ct, l: l}, nil
			}
		}
	}
	return out
}

// timedChunked times DecodeChunk, which on the chunk path is container
// decompression and packet decode in one call.
type timedChunked struct {
	sim.ChunkedTrace
	l *layers
}

func (t *timedChunked) DecodeChunk(i int) ([]bp.Event, error) {
	s := t.l.now()
	evs, err := t.ChunkedTrace.DecodeChunk(i)
	t.l.chunkNs.Add(t.l.now() - s)
	t.l.chunkEvents.Add(int64(len(evs)))
	return evs, err
}

// span is one timed region, keyed by workload, cell and job, with the
// layer counts taken at its boundaries.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent,omitempty"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	Cell     string             `json:"cell,omitempty"`
	Job      string             `json:"job,omitempty"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// addSpan records a span that started at start (a now() reading) and ends
// now, returning its ID for children.
func (l *layers) addSpan(s span, start int64) int {
	return l.addSpanAt(s, start, l.now())
}

func (l *layers) addSpanAt(s span, start, end int64) int {
	if l == nil {
		return 0
	}
	s.StartNs, s.EndNs = start, end
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// counts is a point-in-time copy of the shared layer clocks, so a span can
// carry what happened inside it as the difference of two copies.
func (l *layers) counts() map[string]float64 {
	if l == nil {
		return nil
	}
	c := map[string]float64{
		"compress_ns": float64(l.compressNs.Load()), "compress_bytes": float64(l.compressBytes.Load()),
		"sbbt_ns": float64(l.sbbtNs.Load()), "sbbt_events": float64(l.sbbtEvents.Load()),
		"chunk_ns": float64(l.chunkNs.Load()), "chunk_events": float64(l.chunkEvents.Load()),
		"sim_ns": float64(l.simNs.Load()),
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for label, st := range l.preds {
		c["pred_"+label+"_ns"] = st.seconds() * 1e9
		c["pred_"+label+"_events"] = float64(st.events())
	}
	return c
}

// delta is after minus before, dropping keys that did not move.
func delta(before, after map[string]float64) map[string]float64 {
	if after == nil {
		return nil
	}
	d := map[string]float64{}
	for k, v := range after {
		if dv := v - before[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

// writeSpans dumps the spans as JSON, ordered by start time.
func (l *layers) writeSpans(path string) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
