// Batched-versus-scalar equivalence: for every reader implementation and a
// grid of warm-up and limit configurations, the batched pipeline (Run) must
// produce byte-identical result JSON to the scalar reference loop
// (RunScalar) — and must surface the same typed error class when the trace
// is corrupt, truncated or panics mid-decode. External test package: the
// cbp5 reader is part of the matrix, and cbp5's own tests import sim.
package sim_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/bt9"
	"mbplib/internal/cbp5"
	"mbplib/internal/faults"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/sbbt"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

func equivSpec(branches uint64) tracegen.Spec {
	return tracegen.Spec{
		Name: "equiv", Seed: 99, Branches: branches,
		Kernels: []tracegen.KernelSpec{
			{Kind: tracegen.Biased}, {Kind: tracegen.Loop},
			{Kind: tracegen.Correlated}, {Kind: tracegen.CallRet},
			{Kind: tracegen.Indirect},
		},
	}
}

func generate(t *testing.T, spec tracegen.Spec) []bp.Event {
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

func encodeSBBT(t *testing.T, evs []bp.Event, checksummed bool) []byte {
	t.Helper()
	var instrs uint64
	for _, ev := range evs {
		instrs += ev.InstrsSinceLastBranch + 1
	}
	var buf bytes.Buffer
	var w *sbbt.Writer
	var err error
	if checksummed {
		w, err = sbbt.NewChecksumWriter(&buf, instrs, uint64(len(evs)))
	} else {
		w, err = sbbt.NewWriter(&buf, instrs, uint64(len(evs)))
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeBT9(t *testing.T, evs []bp.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bt9.NewWriter(&buf)
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scalarOnly hides a reader's ReadBatch so the run exercises the bp.ReadBatch
// adapter fallback.
type scalarOnly struct{ r bp.Reader }

func (s scalarOnly) Read() (bp.Event, error) { return s.r.Read() }

// equivReaders enumerates every reader implementation over the same event
// stream. Each factory returns a fresh reader positioned at the first event.
func equivReaders(t *testing.T, spec tracegen.Spec) map[string]func() bp.Reader {
	t.Helper()
	evs := generate(t, spec)
	sbbtData := encodeSBBT(t, evs, false)
	sbbtCRC := encodeSBBT(t, evs, true)
	bt9Data := encodeBT9(t, evs)
	newSBBT := func(data []byte) bp.Reader {
		r, err := sbbt.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return map[string]func() bp.Reader{
		"sbbt":     func() bp.Reader { return newSBBT(sbbtData) },
		"sbbt-crc": func() bp.Reader { return newSBBT(sbbtCRC) },
		"bt9": func() bp.Reader {
			r, err := bt9.NewReader(bytes.NewReader(bt9Data))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"cbp5": func() bp.Reader {
			r, err := cbp5.NewReader(bytes.NewReader(bt9Data))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"tracegen": func() bp.Reader {
			g, err := tracegen.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"scalar-adapter": func() bp.Reader { return scalarOnly{newSBBT(sbbtData)} },
	}
}

// resultJSON marshals a result with the one nondeterministic field zeroed.
func resultJSON(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	res.Metrics.SimulationTime = 0
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBatchedRunMatchesScalar(t *testing.T) {
	spec := equivSpec(30000)
	readers := equivReaders(t, spec)

	// The spec generates ~6-7 instructions per branch, so warm-up and limit
	// values in the tens of thousands land mid-trace; the huge values probe
	// the all-warm-up and limit-beyond-EOF edges.
	configs := []sim.Config{
		{TraceName: "t"},
		{TraceName: "t", WarmupInstructions: 50_000},
		{TraceName: "t", SimInstructions: 80_000},
		{TraceName: "t", WarmupInstructions: 50_000, SimInstructions: 80_000},
		{TraceName: "t", WarmupInstructions: 1 << 40},
		{TraceName: "t", SimInstructions: 1 << 40},
		{TraceName: "t", WarmupInstructions: 30_000, SimInstructions: 1},
	}
	for name, newReader := range readers {
		for i, cfg := range configs {
			t.Run(fmt.Sprintf("%s/cfg%d", name, i), func(t *testing.T) {
				want, err := sim.RunScalar(newReader(), gshare.New(), cfg)
				if err != nil {
					t.Fatalf("RunScalar: %v", err)
				}
				got, err := sim.Run(newReader(), gshare.New(), cfg)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				wantJSON := resultJSON(t, want)
				gotJSON := resultJSON(t, got)
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Errorf("batched result differs from scalar:\nscalar:  %s\nbatched: %s", wantJSON, gotJSON)
				}
			})
		}
	}
}

// TestBatchedRunTinyTraces covers traces much smaller than one batch,
// where the first batch is also the last (the empty trace is covered by
// TestRunEmptyTrace in the package's own tests).
func TestBatchedRunTinyTraces(t *testing.T) {
	for _, branches := range []uint64{1, 2, 100} {
		spec := equivSpec(branches)
		for name, newReader := range equivReaders(t, spec) {
			t.Run(fmt.Sprintf("%s/%d", name, branches), func(t *testing.T) {
				want, err := sim.RunScalar(newReader(), gshare.New(), sim.Config{TraceName: "t"})
				if err != nil {
					t.Fatalf("RunScalar: %v", err)
				}
				got, err := sim.Run(newReader(), gshare.New(), sim.Config{TraceName: "t"})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !bytes.Equal(resultJSON(t, want), resultJSON(t, got)) {
					t.Errorf("batched result differs from scalar for %d-branch trace", branches)
				}
			})
		}
	}
}

// TestBatchedRunErrorEquivalence: decode failures mid-trace must surface
// through the prefetch pipeline with the same fault class as the scalar
// loop, and neither path may return a partial Result alongside the error.
func TestBatchedRunErrorEquivalence(t *testing.T) {
	evs := generate(t, equivSpec(20000))
	clean := encodeSBBT(t, evs, false)
	cleanCRC := encodeSBBT(t, evs, true)

	corruptions := map[string][]byte{
		// Mid-packet cut: typed truncation.
		"truncated": clean[:len(clean)*2/3+5],
		// Reserved-bit damage inside a packet: typed corruption. Packet
		// byte 7 holds reserved bits in the opcode word.
		"bitflip-crc": func() []byte {
			data := bytes.Clone(cleanCRC)
			data[len(data)/2] ^= 0x40
			return data
		}(),
	}
	for name, data := range corruptions {
		t.Run(name, func(t *testing.T) {
			newReader := func() bp.Reader {
				r, err := sbbt.NewReader(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			scalarRes, scalarErr := sim.RunScalar(newReader(), gshare.New(), sim.Config{})
			batchRes, batchErr := sim.Run(newReader(), gshare.New(), sim.Config{})
			if scalarErr == nil || batchErr == nil {
				t.Fatalf("errors = (%v, %v), want both non-nil", scalarErr, batchErr)
			}
			if scalarRes != nil || batchRes != nil {
				t.Errorf("partial result returned alongside error")
			}
			if faults.Class(scalarErr) != faults.Class(batchErr) {
				t.Errorf("fault class: scalar %q, batched %q (scalar err %v, batched err %v)",
					faults.Class(scalarErr), faults.Class(batchErr), scalarErr, batchErr)
			}
		})
	}
}

// TestBatchedRunInjectedFaults drives the prefetch pipeline through the
// fault-injection harness: the typed class must survive the goroutine hop.
func TestBatchedRunInjectedFaults(t *testing.T) {
	evs := generate(t, equivSpec(20000))
	data := encodeSBBT(t, evs, true)

	cases := map[string]struct {
		fault faults.Fault
		class string
	}{
		"truncate": {faults.Truncate(int64(len(data) * 1 / 3)), "truncated"},
		"bitflip":  {faults.BitFlip(int64(len(data)/2), 3), "corrupt"},
		"garbage":  {faults.Garbage(int64(len(data)/2), 64, 7), "corrupt"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r, err := sbbt.NewReader(faults.NewInjector(bytes.NewReader(data), c.fault))
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			res, err := sim.Run(r, gshare.New(), sim.Config{})
			if err == nil {
				t.Fatalf("injected fault not surfaced (result: %+v)", res.Metrics)
			}
			if got := faults.Class(err); got != c.class {
				t.Errorf("faults.Class = %q, want %q (err: %v)", got, c.class, err)
			}
		})
	}
}

// panicReader panics on the nth read, emulating a decoder bug.
type panicReader struct {
	evs  []bp.Event
	pos  int
	trip int
}

func (r *panicReader) Read() (bp.Event, error) {
	if r.pos >= r.trip {
		panic("decoder bug")
	}
	if r.pos >= len(r.evs) {
		return bp.Event{}, io.EOF
	}
	ev := r.evs[r.pos]
	r.pos++
	return ev, nil
}

// runners are the entry points that read a trace through the prefetcher:
// Run, and Compare with a second gshare.
var runners = map[string]func(bp.Reader, sim.Config) error{
	"Run": func(r bp.Reader, cfg sim.Config) error {
		_, err := sim.Run(r, gshare.New(), cfg)
		return err
	},
	"Compare": func(r bp.Reader, cfg sim.Config) error {
		_, err := sim.Compare(r, gshare.New(), gshare.New(), cfg)
		return err
	},
}

func TestBatchedRunContainsReaderPanic(t *testing.T) {
	evs := generate(t, equivSpec(10000))
	for name, run := range runners {
		err := run(&panicReader{evs: evs, trip: 5000}, sim.Config{})
		if err == nil {
			t.Fatalf("%s: reader panic not surfaced", name)
		}
		if got := faults.Class(err); got != "panic" {
			t.Errorf("%s: faults.Class = %q, want %q", name, got, "panic")
		}
		var pe *faults.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error is not a *faults.PanicError: %v", name, err)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("%s: panic error carries no stack", name)
		}
	}
}

// guardedReader flags any read arriving after the simulation returned,
// verifying the shutdown guarantee of Run and Compare: callers close the
// underlying file right after they return, so the prefetch goroutine must
// be done with the reader by then.
type guardedReader struct {
	g      *tracegen.Generator
	closed atomic.Bool
	late   atomic.Bool
}

func (r *guardedReader) Read() (bp.Event, error) {
	if r.closed.Load() {
		r.late.Store(true)
		return bp.Event{}, errors.New("read after close")
	}
	return r.g.Read()
}

func TestBatchedRunStopsReaderBeforeReturn(t *testing.T) {
	for name, run := range runners {
		for _, cfg := range []sim.Config{
			{SimInstructions: 10_000}, // early stop: producer likely mid-flight
			{},                        // full drain
		} {
			g, err := tracegen.New(equivSpec(200000))
			if err != nil {
				t.Fatal(err)
			}
			r := &guardedReader{g: g}
			if err := run(r, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			r.closed.Store(true)
			if r.late.Load() {
				t.Fatalf("%s cfg %+v: reader used after it returned", name, cfg)
			}
		}
	}
}
