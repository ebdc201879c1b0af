package twolevel

import "mbplib/internal/bp"

// This file is the two-level bp.BatchPredictor kernel, one loop for all
// nine variants: the sharing levels only change the two fold widths, and a
// global level folds to the single index 0. The scalar path folds the
// address for the history register three times per conditional branch
// (Predict, Train, Track) and the pattern-table index twice; the kernel
// folds each once, reads the history register once, and reads and updates
// the counter with one branch-free PredictUpdate.

// PredictBatch implements bp.BatchPredictor: the pure batched read path.
func (p *Predictor) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	for i := range branches {
		out[i] = bp.Prediction(p.pht.Predict(p.index(branches[i].IP)))
	}
}

// TrainBatch implements bp.BatchPredictor: the fused predict+train kernel,
// byte-identical in effect to the scalar Predict/Train/Track sequence.
func (p *Predictor) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	pht, bhrs, hmask := p.pht, p.bhrs, p.hmask
	logBHRs, logPHTs, histLen := p.logBHRs, p.logPHTs, uint(p.histLen)
	for i := range branches {
		b := &branches[i]
		a := b.IP >> 2
		r := &bhrs[fold(a, logBHRs)]
		h := *r
		if b.Opcode.IsConditional() {
			out[i] = bp.Prediction(pht.PredictUpdate(fold(a, logPHTs)<<histLen|h, b.Taken))
		}
		*r = (h<<1 | b2u(b.Taken)) & hmask
	}
}
