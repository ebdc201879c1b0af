package bench

import (
	"fmt"
	"os"
	"time"

	"mbplib/internal/sim"
	"mbplib/internal/sim/journal"
	"mbplib/internal/sweep"
)

// JournalMeasurement is one variant of the journal-overhead stage: the same
// single-worker sweep matrix with or without a crash-safety journal.
type JournalMeasurement struct {
	Seconds           float64 `json:"seconds"`
	AggBranchesPerSec float64 `json:"agg_branches_per_sec"`
}

// JournalStage records the write overhead of the resumable-sweep journal:
// the same matrix run without a journal and run appending every cell result
// (fsync per record) at the default checkpoint interval. The contract is
// that durability costs a few percent of cell time — but the fsync cost is
// per cell, so the fraction is only meaningful over cells of realistic size;
// callers should hand this stage their largest traces, not a smoke matrix.
//
// OverheadFraction is the committed evidence, and it is measured directly:
// the scheduler accrues its journal encode+write+fsync time on the obs
// "journal" stage clock, so the fraction is journal seconds over the
// journalled run's wall time — not the difference of two wall-clock
// measurements, which at percent level is dominated by scheduler noise.
// The wall times of both variants are still recorded for context.
type JournalStage struct {
	Cells           int                `json:"cells"`
	CheckpointEvery uint64             `json:"checkpoint_every"`
	Plain           JournalMeasurement `json:"plain"`
	Journalled      JournalMeasurement `json:"journalled"`
	// JournalSeconds is time inside journal appends (obs stage clock) during
	// the best journalled round.
	JournalSeconds float64 `json:"journal_seconds"`
	// OverheadFraction is JournalSeconds over the best journalled round's
	// wall time: 0.01 means 1% of cell time went to durability.
	OverheadFraction float64 `json:"overhead_fraction"`
}

// MeasureJournal benchmarks the journal's write overhead over the given SBBT
// trace files and predictor specs, taking the best of rounds runs per
// variant. Every journalled round writes into a fresh directory so no round
// replays a predecessor's cells; opening and closing the journal happens
// once per sweep, not per cell, so it sits outside the timed region.
func MeasureJournal(paths, predictorSpecs []string, checkpointEvery uint64, rounds int) (*JournalStage, error) {
	if rounds < 1 {
		rounds = 1
	}
	sources := sweep.Sources(paths)
	preds, err := sweepPredictors(predictorSpecs)
	if err != nil {
		return nil, err
	}
	total, err := matrixBranches(paths, len(preds))
	if err != nil {
		return nil, err
	}
	st := &JournalStage{Cells: len(sources) * len(preds), CheckpointEvery: checkpointEvery}

	run := func(jnl *journal.Journal) (wall, journalSec float64, err error) {
		col := runCollector()
		before := col.Snapshot()
		start := time.Now()
		_, err = sim.SweepParallel(sources, preds, sim.Config{}, sim.ParallelOptions{
			Workers: 1, Metrics: col,
			Journal: jnl, CheckpointEvery: checkpointEvery,
		})
		wall = time.Since(start).Seconds()
		journalSec = diffStageSeconds(before, col.Snapshot())["journal"]
		return wall, journalSec, err
	}

	var plainSec, jnlSec, journalSec float64
	for i := 0; i < rounds; i++ {
		sec, _, err := run(nil)
		if err != nil {
			return nil, fmt.Errorf("bench: plain sweep: %w", err)
		}
		if plainSec == 0 || sec < plainSec {
			plainSec = sec
		}
		dir, err := os.MkdirTemp("", "mbpbench-journal")
		if err != nil {
			return nil, err
		}
		jnl, err := journal.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		sec, jsec, err := run(jnl)
		if cerr := jnl.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("bench: journalled sweep: %w", err)
		}
		if jnlSec == 0 || sec < jnlSec {
			jnlSec, journalSec = sec, jsec
		}
	}
	st.Plain = JournalMeasurement{Seconds: plainSec}
	st.Journalled = JournalMeasurement{Seconds: jnlSec}
	st.JournalSeconds = journalSec

	if plainSec > 0 {
		st.Plain.AggBranchesPerSec = float64(total) / plainSec
	}
	if jnlSec > 0 {
		st.Journalled.AggBranchesPerSec = float64(total) / jnlSec
		st.OverheadFraction = journalSec / jnlSec
	}
	return st, nil
}
