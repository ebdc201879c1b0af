package batage

import (
	"mbplib/internal/bp"
)

// This file is the BATAGE bp.BatchPredictor kernel. Like TAGE's, its win is
// structural: one virtual call per batch instead of three per event and one
// lookup-cache invalidation per batch. The selection, update and history
// logic is shared verbatim with the scalar path (scan, trainLookup,
// tage.Hasher.Push), so the two paths cannot drift.

// PredictBatch implements bp.BatchPredictor: the batched read path. Every
// entry is resolved by a fresh table scan under the state as of entry,
// exactly what Predict would return. The scans go through the lookup
// cache's storage, so the cache is invalidated afterwards.
//
//mbpvet:impure scan writes through the predictor-owned lookup cache, which is invalidated before returning; the cache is not serialized state and predictions are unaffected
func (p *Predictor) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	for i := range branches {
		p.scan(branches[i].IP, &p.cache)
		out[i] = bp.Prediction(p.cache.pred)
	}
	p.haveCache = false
}

// TrainBatch implements bp.BatchPredictor: the fused predict+train kernel,
// byte-identical in effect to the scalar Predict/Train/Track sequence. The
// lookup cache (not serialized state) is invalidated once at the end so a
// later Predict cannot observe a scan from inside the batch.
func (p *Predictor) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	if len(branches) == 0 {
		return
	}
	l := &p.cache
	for i := range branches {
		b := &branches[i]
		if b.Opcode.IsConditional() {
			p.scan(b.IP, l)
			out[i] = bp.Prediction(l.pred)
			p.trainLookup(l, b.Taken)
		}
		p.hash.Push(b.Taken)
	}
	p.haveCache = false
}
