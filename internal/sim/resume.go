package sim

// This file is the crash-safe resumable-sweep machinery: it lets
// SweepParallel journal finished cells, checkpoint in-flight ones, replay a
// previous run's journal, and drain gracefully on a signal. See
// internal/sim/journal for the durability substrate and DESIGN.md
// ("Resumable sweeps") for the recovery rules.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"mbplib/internal/bp"
	"mbplib/internal/faults"
	"mbplib/internal/obs"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sim/tracecache"
)

// CellKey is the journal identity of one (trace, predictor) cell: the trace
// identity (content digest when the source carries one), the canonical
// predictor spec, and the simulation window. Any difference — other trace
// bytes, other predictor configuration, other warmup/limit — yields another
// key, so a journal never replays a result the current invocation would not
// have produced itself.
func CellKey(src TraceSource, predictor string, cfg Config) string {
	return fmt.Sprintf("%s|%s|w=%d|s=%d", src.ID(), predictor, cfg.WarmupInstructions, cfg.SimInstructions)
}

// journalCell durably appends one finished cell. Resumable (drained)
// failures are never journalled: the cell must run again on resume.
func journalCell(jnl *journal.Journal, col *obs.Collector, key string, res *Result, fail *TraceFailure) error {
	start := col.Now()
	defer col.Stage(obs.StageJournal).Since(start)
	rec := journal.CellRecord{Key: key}
	var err error
	if res != nil {
		rec.Result, err = json.Marshal(res)
	} else {
		rec.Failure, err = json.Marshal(fail)
	}
	if err != nil {
		return err
	}
	n, err := jnl.AppendCell(rec)
	if err != nil {
		return err
	}
	col.Ctr(obs.CtrJournalRecords).Add(1)
	col.Ctr(obs.CtrJournalBytes).Add(uint64(n))
	return nil
}

// decodeCell rehydrates one journalled cell. Replayed results are
// re-marshalled from the typed structs downstream, which is where the
// byte-identical-output guarantee of a resumed sweep is enforced (the
// journal envelope itself only promises semantic JSON equality). A record
// journalled when cells still built a most_failed report replays without
// it, as the metrics-only result a live cell returns.
func decodeCell(rec journal.CellRecord) (*Result, *TraceFailure, error) {
	if rec.Result != nil {
		var res Result
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return nil, nil, err
		}
		res.MostFailed, res.Metrics.NumMostFailedBranches = nil, 0
		return &res, nil, nil
	}
	var fail TraceFailure
	if err := json.Unmarshal(rec.Failure, &fail); err != nil {
		return nil, nil, err
	}
	fail.Err = &replayedError{msg: fail.Message, class: classErr(fail.Class)}
	return nil, &fail, nil
}

// replayedError resurrects the fault class of a journalled failure so
// errors.Is-based decisions (FailFast selection, drained exit codes) behave
// the same on replay as they did live.
type replayedError struct {
	msg   string
	class error
}

func (e *replayedError) Error() string { return e.msg }
func (e *replayedError) Unwrap() error { return e.class }

// classErr maps a faults taxonomy class name back to its sentinel; nil for
// "other" (and anything unknown), whose failures carry no sentinel.
func classErr(class string) error {
	switch class {
	case "corrupt":
		return faults.ErrCorrupt
	case "truncated":
		return faults.ErrTruncated
	case "limit":
		return faults.ErrLimit
	case "panic":
		return faults.ErrPredictorPanic
	case "deadline":
		return faults.ErrDeadline
	case "drained":
		return faults.ErrDrained
	}
	return nil
}

// drainedFailure marks a cell the drain stopped before it was admitted.
func drainedFailure(trace string) *TraceFailure {
	return newFailure(trace, fmt.Errorf("not started: %w", faults.ErrDrained), 0, 0)
}

// mapDeadline rewrites a cell-timeout expiry into the typed deadline fault;
// anything else — in particular context.Canceled, which the worker's
// cancellation-echo check matches on — passes through untouched.
func mapDeadline(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("cell deadline exceeded: %w", faults.ErrDeadline)
	}
	return err
}

// interruptErr reports why an in-flight reading must stop: the sweep is
// draining (faults.ErrDrained, resumable) or was cancelled (raw
// context.Canceled). nil means keep going; a nil drain channel never fires.
func interruptErr(ctx context.Context, drain <-chan struct{}) error {
	select {
	case <-drain:
		return fmt.Errorf("interrupted: %w", faults.ErrDrained)
	default:
	}
	return ctx.Err()
}

// cellJournal is the journalling context of one in-flight cell.
type cellJournal struct {
	j     *journal.Journal
	key   string
	every uint64
	col   *obs.Collector
}

// checkpoint durably snapshots the cell at consumed events.
func (jc *cellJournal) checkpoint(loop *runLoop, p bp.Predictor, consumed uint64) error {
	start := jc.col.Now()
	defer jc.col.Stage(obs.StageJournal).Since(start)
	state, err := encodeCellState(loop, p)
	if err != nil {
		return err
	}
	n, err := jc.j.AppendCheckpoint(journal.CheckpointRecord{Key: jc.key, Events: consumed, State: state})
	if err != nil {
		return err
	}
	jc.col.Ctr(obs.CtrCheckpoints).Add(1)
	jc.col.Ctr(obs.CtrJournalRecords).Add(1)
	jc.col.Ctr(obs.CtrJournalBytes).Add(uint64(n))
	return nil
}

// The versions of the sim-owned half of a cell checkpoint (the loop's
// counts around the predictor's own payload). A loop that keeps counters
// writes version 1, with its rows; a metrics-only loop, version 2, without.
const (
	cellStateRows   = 1
	cellStateTotals = 2
)

// encodeCellState serializes the resumable state of an in-flight cell: the
// loop's counts, its branch addresses and, if it keeps them, its
// per-branch counters, then the predictor's own checkpoint, all through
// the bp checkpoint codec.
func encodeCellState(loop *runLoop, p bp.Predictor) ([]byte, error) {
	ck, ok := p.(bp.Checkpointer)
	if !ok {
		return nil, errors.New("sim: predictor does not implement bp.Checkpointer")
	}
	var pstate bytes.Buffer
	if err := ck.Checkpoint(&pstate); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	cw := bp.NewCkptWriter(&buf)
	version := uint64(cellStateRows)
	if loop.counters == nil {
		version = cellStateTotals
	}
	cw.Header("simcell", version)
	cw.U64(loop.instr)
	cw.U64(loop.condBranches)
	cw.U64(loop.mispredictions)
	// Every branch address in first-seen order (by IP id); version 1 then
	// stores the occurrence and misprediction rows up to the last counted
	// branch. Each is a length-prefixed slice.
	hw := int(loop.hw)
	cw.U64s(loop.ips[:hw])
	if version == cellStateRows {
		rows := loop.counted(hw)
		cw.U64s(loop.occ[:rows])
		cw.U64s(loop.missed[:rows])
	}
	cw.Bytes(pstate.Bytes())
	if err := cw.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restoreCellState rebuilds loop and predictor state from a checkpoint of
// either version. A metrics-only loop checks the rows of version 1 and
// drops them; a loop that keeps counters refuses version 2, which has
// none. On error the receivers are unspecified; the caller restarts the
// cell on fresh instances (a bad checkpoint must never condemn the cell).
func restoreCellState(state []byte, loop *runLoop, p bp.Predictor) error {
	ck, ok := p.(bp.Checkpointer)
	if !ok {
		return fmt.Errorf("sim: predictor does not implement bp.Checkpointer: %w", faults.ErrCorrupt)
	}
	cr := bp.NewCkptReader(bytes.NewReader(state))
	v := cr.Header("simcell")
	if cr.Err() == nil && v != cellStateRows && v != cellStateTotals {
		cr.Corrupt("simcell checkpoint version %d, want %d or %d", v, cellStateRows, cellStateTotals)
	}
	instr := cr.U64()
	cond := cr.U64()
	miss := cr.U64()
	ips := cr.U64s()
	var occ, missed []uint64
	if v == cellStateRows {
		occ = cr.U64s()
		missed = cr.U64s()
	}
	pstate := cr.Bytes()
	if err := cr.Err(); err != nil {
		return corrupt(err)
	}
	if v == cellStateTotals && loop.counters != nil {
		return fmt.Errorf("simcell checkpoint version %d holds no branch rows for this cell's report: %w", v, faults.ErrCorrupt)
	}
	if len(occ) > len(ips) || len(missed) != len(occ) {
		return fmt.Errorf("simcell checkpoint: %d stats rows over %d branches: %w", len(occ), len(ips), faults.ErrCorrupt)
	}
	// Row i is the branch of IP id i: the addresses are the trace's first
	// branches in first-seen order, which a repeated address cannot be.
	seen := make(map[uint64]bool, len(ips))
	for _, ip := range ips {
		if seen[ip] {
			return fmt.Errorf("simcell checkpoint: branch %#x listed twice: %w", ip, faults.ErrCorrupt)
		}
		seen[ip] = true
	}
	var sumOcc, sumMissed uint64
	for i := range occ {
		if missed[i] > occ[i] {
			return fmt.Errorf("simcell checkpoint: branch %#x missed %d of %d: %w", ips[i], missed[i], occ[i], faults.ErrCorrupt)
		}
		sumOcc += occ[i]
		sumMissed += missed[i]
	}
	if v == cellStateRows && (sumOcc != cond || sumMissed != miss) {
		return fmt.Errorf("simcell checkpoint: branch rows sum to %d/%d, totals are %d/%d: %w", sumMissed, sumOcc, miss, cond, faults.ErrCorrupt)
	}
	if miss > cond {
		return fmt.Errorf("simcell checkpoint: %d mispredictions of %d branches: %w", miss, cond, faults.ErrCorrupt)
	}
	if loop.counters != nil {
		loop.grow(len(ips))
		copy(loop.occ, occ)
		copy(loop.missed, missed)
	}
	loop.ips, loop.hw = ips, uint32(len(ips))
	loop.instr, loop.condBranches, loop.mispredictions = instr, cond, miss
	return corrupt(ck.Restore(bytes.NewReader(pstate)))
}

// corrupt classifies a checkpoint that does not decode as
// faults.ErrCorrupt, whatever the codec called it: the journal's checksum
// vouched for the record, so one that ends early or does not parse was
// written wrong.
func corrupt(err error) error {
	if err == nil || errors.Is(err, faults.ErrCorrupt) {
		return err
	}
	return fmt.Errorf("simcell checkpoint: %w: %w", err, faults.ErrCorrupt)
}

// matches reports whether a restored checkpoint describes the trace of v,
// once its prefix was skipped: the skipped records saw exactly the
// checkpoint's branches, and they are the table's first ones, in order.
func (l *runLoop) matches(v tracecache.View, skippedHW uint32) bool {
	n := len(l.ips)
	return skippedHW == l.hw && len(v.IPs) >= n && slices.Equal(v.IPs[:n], l.ips)
}
