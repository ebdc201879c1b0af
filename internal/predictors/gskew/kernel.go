package gskew

import (
	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// This file is the 2bc-gskew bp.BatchPredictor kernel. The scalar path
// computes the four bank indices twice per conditional branch (Predict and
// Train) and pays three interface calls per event; the kernel carries the
// global history in a register, computes the indices once — with the
// unrolled XorFoldWide for the usual bank sizes — and hands them to
// resolve, the vote and partial update Train itself runs.

// PredictBatch implements bp.BatchPredictor: the pure batched read path.
func (p *Predictor) PredictBatch(branches []bp.Branch, out []bp.Prediction) {
	for i := range branches {
		out[i] = bp.Prediction(p.Predict(branches[i].IP))
	}
}

// TrainBatch implements bp.BatchPredictor: the fused predict+train kernel,
// byte-identical in effect to the scalar Predict/Train/Track sequence.
func (p *Predictor) TrainBatch(branches []bp.Branch, out []bp.Prediction) {
	logSize := p.logSize
	if logSize < 10 {
		for i := range branches {
			b := &branches[i]
			if b.Opcode.IsConditional() {
				ib, i0, i1, im := p.indices(b.IP)
				out[i] = bp.Prediction(p.resolve(ib, i0, i1, im, b.Taken))
			}
			p.Track(*b)
		}
		return
	}
	m0, m1 := uint64(1)<<p.hist0-1, uint64(1)<<p.hist1-1
	g := p.ghist
	for i := range branches {
		b := &branches[i]
		if ip := b.IP; b.Opcode.IsConditional() {
			out[i] = bp.Prediction(p.resolve(
				utils.XorFoldWide(ip>>2, logSize),
				utils.XorFoldWide((ip^g&m0)*skew0, logSize),
				utils.XorFoldWide((ip^g&m1)*skew1, logSize),
				utils.XorFoldWide(ip*skew2, logSize),
				b.Taken))
		}
		g = g<<1 | b2u(b.Taken)
	}
	p.ghist = g
}
