package bimodal

import (
	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// This file is the bimodal bp.BatchPredictor kernel. The scalar path hashes
// each conditional branch twice (once in Predict, once in Train) and pays
// three interface calls per event; the kernel folds the address with the
// unrolled branch-free XorFoldWide (valid for the usual table sizes; narrow
// tables keep the generic fold), computes the index once per conditional
// branch, and reads and updates the counter through one branch-free
// PredictUpdate. Track is a no-op, so non-conditional events cost nothing.

// PredictBatch implements bp.BatchPredictor: the pure batched read path.
func (p *Predictor) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	table, logSize := p.table, p.logSize
	if logSize < 10 {
		for i := range branches {
			out[i] = bp.Prediction(table.Predict(utils.XorFold(branches[i].IP>>2, logSize)))
		}
		return
	}
	for i := range branches {
		out[i] = bp.Prediction(table.Predict(utils.XorFoldWide(branches[i].IP>>2, logSize)))
	}
}

// TrainBatch implements bp.BatchPredictor: the fused predict+train kernel,
// byte-identical in effect to the scalar Predict/Train/Track sequence.
func (p *Predictor) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	table, logSize := p.table, p.logSize
	if logSize < 10 {
		for i := range branches {
			if b := &branches[i]; b.Opcode.IsConditional() {
				out[i] = bp.Prediction(table.PredictUpdate(utils.XorFold(b.IP>>2, logSize), b.Taken))
			}
		}
		return
	}
	for i := range branches {
		if b := &branches[i]; b.Opcode.IsConditional() {
			out[i] = bp.Prediction(table.PredictUpdate(utils.XorFoldWide(b.IP>>2, logSize), b.Taken))
		}
	}
}
