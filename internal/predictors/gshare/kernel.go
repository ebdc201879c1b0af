package gshare

import (
	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// This file is the GShare bp.BatchPredictor kernel. The scalar path hashes
// each conditional branch twice (Predict and Train reload the history and
// re-fold) and shifts the global history through a field store per event;
// the kernel carries the history in a register across the whole batch,
// folds with the unrolled branch-free XorFoldWide (narrow tables keep the
// generic fold), and reads and updates each counter with one branch-free
// PredictUpdate — branch outcomes are near-random, so keeping them out of
// control flow is the main win.

// PredictBatch implements bp.BatchPredictor: the pure batched read path.
// Every entry is predicted under the history as of entry, exactly what
// repeated Predict calls would return.
func (p *Predictor) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	table, logSize, g := p.table, p.logSize, p.ghist
	if logSize < 10 {
		for i := range branches {
			out[i] = bp.Prediction(table.Predict(utils.XorFold(branches[i].IP^g, logSize)))
		}
		return
	}
	for i := range branches {
		out[i] = bp.Prediction(table.Predict(utils.XorFoldWide(branches[i].IP^g, logSize)))
	}
}

// TrainBatch implements bp.BatchPredictor: the fused predict+train kernel,
// byte-identical in effect to the scalar Predict/Train/Track sequence.
func (p *Predictor) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	table, logSize, hmask := p.table, p.logSize, p.hmask
	g := p.ghist
	if logSize < 10 {
		for i := range branches {
			b := &branches[i]
			if b.Opcode.IsConditional() {
				out[i] = bp.Prediction(table.PredictUpdate(utils.XorFold(b.IP^g, logSize), b.Taken))
			}
			g = (g<<1 | uint64(b2i(b.Taken))) & hmask
		}
		p.ghist = g
		return
	}
	for i := range branches {
		b := &branches[i]
		if b.Opcode.IsConditional() {
			out[i] = bp.Prediction(table.PredictUpdate(utils.XorFoldWide(b.IP^g, logSize), b.Taken))
		}
		g = (g<<1 | uint64(b2i(b.Taken))) & hmask
	}
	p.ghist = g
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
