package perceptron

import (
	"mbplib/internal/bp"
)

// This file is the hashed-perceptron bp.BatchPredictor kernel. The scalar
// path pays three interface calls per event; the kernel pays one per batch
// and otherwise runs the scalar code: indices hashes every table once into
// the kidx scratch, update trains the weights at those indices, and the
// fold bank and path history advance exactly as Track advances them.

// PredictBatch implements bp.BatchPredictor: the pure batched read path.
// Unlike Predict it does not touch the sum cache, which the contract
// permits — it must only fill out with what Predict would return.
//
//mbpvet:impure sum writes the predictor-owned kidx index scratch, which is not serialized state; predictions are unaffected
func (p *Predictor) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	for i := range branches {
		out[i] = bp.Prediction(p.sum(branches[i].IP) >= 0)
	}
}

// TrainBatch implements bp.BatchPredictor: the fused predict+train kernel,
// byte-identical in effect to the scalar Predict/Train/Track sequence,
// including the serialized sum cache: lastIP/lastSum end at the last
// conditional branch's values and haveSum ends false, exactly as a
// trailing Track leaves them.
func (p *Predictor) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	if len(branches) == 0 {
		return
	}
	for i := range branches {
		b := &branches[i]
		if b.Opcode.IsConditional() {
			s := p.sum(b.IP)
			out[i] = bp.Prediction(s >= 0)
			p.update(s, b.Taken)
			p.lastIP, p.lastSum = b.IP, s
		}
		p.folds.Push(b.Taken)
		p.phist.Push(b.IP >> 2)
	}
	p.haveSum = false
}
