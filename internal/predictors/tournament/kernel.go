package tournament

import "mbplib/internal/bp"

// This file is the tournament bp.BatchPredictor kernel, the batched form of
// Listing 4's composition. The components are independent predictors, so
// the scalar interleaving — every component predicts, both bases train, the
// meta trains when they disagree, every component tracks, branch by branch
// — can be regrouped by component: each base runs over the whole batch
// through bp.SimulateBatch (its own native kernel when it has one, the
// scalar loop otherwise), recording its predictions, and only the
// meta-predictor then runs per branch, on those recorded predictions. No
// component is special-cased: a tournament nested as a component batches
// the same way. When two components are one instance the regrouping would
// reorder updates to shared state, so the kernel falls back to the scalar
// loop.

// PredictBatch implements bp.BatchPredictor: the pure batched read path.
// It consults the components directly and leaves the Predict cache alone.
func (p *Predictor) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	for i := range branches {
		ip := branches[i].IP
		if p.meta.Predict(ip) {
			out[i] = bp.Prediction(p.bp1.Predict(ip))
		} else {
			out[i] = bp.Prediction(p.bp0.Predict(ip))
		}
	}
}

// TrainBatch implements bp.BatchPredictor: the fused predict+train kernel,
// byte-identical in effect to the scalar Predict/Train/Track sequence.
// bp0's predictions land straight in out and bp1's in scratch. The meta's
// choice matters only where the bases disagree, and Predict is pure, so
// the meta predicts (and trains) only there; it tracks every branch.
func (p *Predictor) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	if p.aliased {
		for i := range branches {
			b := &branches[i]
			if b.Opcode.IsConditional() {
				out[i] = bp.Prediction(p.Predict(b.IP))
				p.Train(*b)
			}
			p.Track(*b)
		}
		return
	}
	if len(p.pred1) < len(branches) {
		p.pred1 = make([]bp.Prediction, len(branches))
	}
	pred1 := p.pred1[:len(branches)]
	bp.SimulateBatch(p.bp0, branches, out)
	bp.SimulateBatch(p.bp1, branches, pred1)
	meta := p.meta
	for i := range branches {
		b := &branches[i]
		if b.Opcode.IsConditional() && out[i] != pred1[i] {
			if meta.Predict(b.IP) {
				out[i] = pred1[i]
			}
			mb := *b
			mb.Taken = bool(pred1[i]) == b.Taken
			meta.Train(mb)
		}
		meta.Track(*b)
	}
	p.tracked = true
}
