package sim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/sim/journal"
)

// sweepFixtureCfg is the metrics-only lane testdata/simcell-v1-sweep.ckpt
// was written by: a small gshare over fixtureEvents in batches of 1000,
// checkpointing every 12000 records, by the tree before metrics-only lanes
// stopped counting per-branch rows.
var sweepFixtureCfg = Config{TraceName: "simcell-v1-sweep", WarmupInstructions: 5000, metricsOnly: true}

// sweepFixtureEvents is the number of records the sweep fixture accounts.
const sweepFixtureEvents = 12000

// simcellVersion is the version a simcell checkpoint declares.
func simcellVersion(t *testing.T, state []byte) uint64 {
	t.Helper()
	cr := bp.NewCkptReader(bytes.NewReader(state))
	v := cr.Header("simcell")
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return v
}

// liveState is the checkpoint a loop under cfg writes after the first n
// records of evs, in batches of 1000.
func liveState(t *testing.T, cfg Config, n int) []byte {
	t.Helper()
	loop := newRunLoop(cfg)
	defer loop.release()
	p := smallGshare()
	recs, v := records(t, fixtureEvents(t)[:n])
	for i := 0; i < n; i += 1000 {
		loop.process(recs[i:i+1000], 0, v, p, new(prepared))
	}
	state, err := encodeCellState(loop, p)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// resumeCell runs a cell under cfg over fixtureEvents in batches of size,
// with state journalled as its checkpoint at events, and returns its
// result and the number of predictors it built.
func resumeCell(t *testing.T, cfg Config, state []byte, events uint64, size int) (*Result, int) {
	t.Helper()
	jnl, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if _, err := jnl.AppendCheckpoint(journal.CheckpointRecord{Key: "cell", Events: events, State: state}); err != nil {
		t.Fatal(err)
	}
	var built int
	newP := func() bp.Predictor { built++; return smallGshare() }
	res, err := runCell(context.Background(), nil, batchOpener(t, fixtureEvents(t), size), newP, cfg, &cellJournal{j: jnl, key: "cell"})
	if err != nil {
		t.Fatal(err)
	}
	return res, built
}

// uninterrupted is the result of a cell under cfg run whole, as JSON
// without its time.
func uninterrupted(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := runCell(context.Background(), nil, sliceOpener(t, fixtureEvents(t)), smallGshare, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return resultJSONNoTime(t, res)
}

// TestCellStateV1SweepLane: a version-1 checkpoint of a metrics-only sweep
// lane restores into a metrics-only loop, which checks its rows and drops
// them, and re-encodes as the version 2 a live lane writes at the same
// point. Journalled, it resumes with no rerun, from the middle of a batch,
// to the result of an uninterrupted run.
func TestCellStateV1SweepLane(t *testing.T) {
	state, err := os.ReadFile("testdata/simcell-v1-sweep.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if v := simcellVersion(t, state); v != cellStateRows {
		t.Fatalf("fixture is version %d, want %d", v, cellStateRows)
	}
	loop := newRunLoop(sweepFixtureCfg)
	defer loop.release()
	p := smallGshare()
	if err := restoreCellState(state, loop, p); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if loop.counters != nil {
		t.Error("a metrics-only loop kept the checkpoint's rows")
	}
	if loop.hw != 56 || loop.instr != 63337 || loop.condBranches != 7883 || loop.mispredictions != 2689 {
		t.Errorf("restored hw %d, instr %d, totals %d/%d; want 56, 63337, 2689/7883", loop.hw, loop.instr, loop.mispredictions, loop.condBranches)
	}
	enc, err := encodeCellState(loop, p)
	if err != nil {
		t.Fatal(err)
	}
	if live := liveState(t, sweepFixtureCfg, sweepFixtureEvents); !bytes.Equal(enc, live) {
		t.Errorf("restored fixture re-encodes to %d bytes, a live lane at %d records writes %d", len(enc), sweepFixtureEvents, len(live))
	}

	// 12000 records end inside the eighth batch of 1600.
	res, built := resumeCell(t, sweepFixtureCfg, state, sweepFixtureEvents, 1600)
	if built != 1 {
		t.Errorf("resume built %d predictors, want 1 (checkpoint accepted)", built)
	}
	if got, want := resultJSONNoTime(t, res), uninterrupted(t, sweepFixtureCfg); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from an uninterrupted run\nresumed: %s\nfresh:   %s", got, want)
	}
}

// TestCellStateV2RoundTrip: a metrics-only loop writes version 2, without
// rows; it restores to the same counts and addresses, re-encodes to the
// same bytes, and resumes a journalled cell with no rerun to the result of
// an uninterrupted run.
func TestCellStateV2RoundTrip(t *testing.T) {
	state := liveState(t, sweepFixtureCfg, sweepFixtureEvents)
	if v := simcellVersion(t, state); v != cellStateTotals {
		t.Fatalf("a metrics-only loop wrote version %d, want %d", v, cellStateTotals)
	}
	loop := newRunLoop(sweepFixtureCfg)
	defer loop.release()
	p := smallGshare()
	if err := restoreCellState(state, loop, p); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if loop.counters != nil || loop.hw != 56 || len(loop.ips) != 56 || loop.condBranches != 7883 || loop.mispredictions != 2689 {
		t.Errorf("restored counters %v, hw %d over %d addresses, totals %d/%d; want none, 56, 2689/7883",
			loop.counters != nil, loop.hw, len(loop.ips), loop.mispredictions, loop.condBranches)
	}
	if enc, err := encodeCellState(loop, p); err != nil || !bytes.Equal(enc, state) {
		t.Errorf("re-encoded checkpoint differs (err %v)", err)
	}
	res, built := resumeCell(t, sweepFixtureCfg, state, sweepFixtureEvents, 1600)
	if built != 1 {
		t.Errorf("resume built %d predictors, want 1 (checkpoint accepted)", built)
	}
	if got, want := resultJSONNoTime(t, res), uninterrupted(t, sweepFixtureCfg); !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from an uninterrupted run\nresumed: %s\nfresh:   %s", got, want)
	}
}

// TestCellStateV2RefusedForRows: a cell that reports needs the rows a
// version-2 checkpoint does not hold, so it refuses one and reruns fresh,
// to the full result of a run without a journal.
func TestCellStateV2RefusedForRows(t *testing.T) {
	state := liveState(t, sweepFixtureCfg, sweepFixtureEvents)
	cfg := sweepFixtureCfg
	cfg.metricsOnly = false
	loop := newRunLoop(cfg)
	defer loop.release()
	if err := restoreCellState(state, loop, smallGshare()); !errors.Is(err, faults.ErrCorrupt) || !strings.Contains(err.Error(), "no branch rows") {
		t.Fatalf("restore into a loop with counters = %v, want a refusal naming the missing rows", err)
	}
	res, built := resumeCell(t, cfg, state, sweepFixtureEvents, 1600)
	if built != 2 {
		t.Errorf("built %d predictors, want 2 (the checkpoint refused, the cell rerun)", built)
	}
	if len(res.MostFailed) == 0 {
		t.Error("the rerun cell has no most_failed report")
	}
	if got, want := resultJSONNoTime(t, res), uninterrupted(t, cfg); !bytes.Equal(got, want) {
		t.Errorf("rerun cell differs from a clean run\ngot:  %s\nwant: %s", got, want)
	}
}

// FuzzCellState feeds arbitrary bytes to restoreCellState, into a loop
// with counters and a metrics-only one. It must never panic, and every
// error must be faults.ErrCorrupt. A checkpoint that restores re-encodes,
// and that encoding restores and re-encodes to itself.
func FuzzCellState(f *testing.F) {
	for _, name := range []string{"testdata/simcell-v1.ckpt", "testdata/simcell-v1-sweep.ckpt"} {
		state, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(state, false)
		f.Add(state, true)
		f.Add(state[:len(state)/2], true)
	}
	var pstate bytes.Buffer
	if err := smallGshare().(bp.Checkpointer).Checkpoint(&pstate); err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	cw := bp.NewCkptWriter(&v2)
	cw.Header("simcell", cellStateTotals)
	cw.U64(900)
	cw.U64(40)
	cw.U64(12)
	cw.U64s([]uint64{0x400000, 0x400010, 0x400020})
	cw.Bytes(pstate.Bytes())
	f.Add(v2.Bytes(), true)
	f.Add(v2.Bytes(), false)

	restore := func(t *testing.T, state []byte, cfg Config) ([]byte, error) {
		loop := newRunLoop(cfg)
		defer loop.release()
		p := smallGshare()
		if err := restoreCellState(state, loop, p); err != nil {
			return nil, err
		}
		enc, err := encodeCellState(loop, p)
		if err != nil {
			t.Fatalf("a restored checkpoint does not re-encode: %v", err)
		}
		return enc, nil
	}
	f.Fuzz(func(t *testing.T, state []byte, metricsOnly bool) {
		cfg := Config{metricsOnly: metricsOnly}
		enc, err := restore(t, state, cfg)
		if err != nil {
			if !errors.Is(err, faults.ErrCorrupt) {
				t.Fatalf("restore failed with %v, want a faults.ErrCorrupt error", err)
			}
			return
		}
		again, err := restore(t, enc, cfg)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoded checkpoint does not round-trip (err %v)", err)
		}
	})
}
