// Package tournament implements the generalized tournament predictor of
// Listing 4 in the MBPlib paper: two arbitrary base predictors arbitrated
// by an arbitrary meta-predictor. It is the flagship demonstration of the
// Predict/Train/Track split (§IV-B, §VI-D): the meta-predictor is trained
// with a synthetic branch whose outcome names the correct base predictor,
// and only when the bases disagree (a partial update policy), while its
// scenario is always tracked with the program branch.
package tournament

import (
	"reflect"

	"mbplib/internal/bp"
)

// Predictor combines two base predictors under a meta-predictor. The
// original tournament predictor of Evers, Yeh and Patt used a bimodal and a
// GShare base; any bp.Predictor works here.
type Predictor struct {
	meta, bp0, bp1 bp.Predictor

	// Cached data, as in Listing 4: predictions for the one IP predicted
	// since the last Track, so meta-training can reuse them.
	predictedIP uint64
	tracked     bool
	provider    bool
	prediction  [2]bool

	// aliased is set when two components are the same instance: the batch
	// kernel, which runs each base over a whole batch before the meta, would
	// then reorder updates to shared state, so it takes the scalar loop.
	aliased bool
	// pred1 is the batch kernel's scratch for bp1's predictions, grown to
	// the largest batch seen. Not predictor state.
	pred1 []bp.Prediction
}

// New returns a tournament over meta, bp0 and bp1. The meta-predictor's
// outcome bit selects the provider: not-taken picks bp0, taken picks bp1.
func New(meta, bp0, bp1 bp.Predictor) *Predictor {
	if meta == nil || bp0 == nil || bp1 == nil {
		panic("tournament: nil component")
	}
	return &Predictor{
		meta: meta, bp0: bp0, bp1: bp1, tracked: true,
		aliased: same(meta, bp0) || same(meta, bp1) || same(bp0, bp1),
	}
}

// same reports whether a and b are one instance. Interface comparison
// panics on uncomparable dynamic types, which are never the same instance.
func same(a, b bp.Predictor) bool {
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && t.Comparable() && a == b
}

// Predict implements bp.Predictor. Repeated calls for the same IP between
// Tracks reuse the cached component predictions, keeping Predict pure even
// though the components are consulted only once.
//
//mbpvet:impure component-prediction memoization: the cache is keyed by ip and invalidated by Track, so repeated Predicts are stable
func (p *Predictor) Predict(ip uint64) bool {
	if p.predictedIP == ip && !p.tracked {
		return p.prediction[b2i(p.provider)]
	}
	p.predictedIP = ip
	p.tracked = false
	p.provider = p.meta.Predict(ip)
	p.prediction[0] = p.bp0.Predict(ip)
	p.prediction[1] = p.bp1.Predict(ip)
	return p.prediction[b2i(p.provider)]
}

// Train implements bp.Predictor. Both bases always train; the meta-
// predictor trains only when the bases disagreed, on a synthetic branch
// whose outcome is "predictor 1 was right" (Listing 4, line 33).
func (p *Predictor) Train(b bp.Branch) {
	p.Predict(b.IP) // ensure the cache describes this branch
	p.bp0.Train(b)
	p.bp1.Train(b)
	if p.prediction[0] != p.prediction[1] {
		metaBranch := bp.Branch{
			IP:     b.IP,
			Target: b.Target,
			Opcode: b.Opcode,
			Taken:  p.prediction[1] == b.Taken,
		}
		p.meta.Train(metaBranch)
	}
}

// Track implements bp.Predictor: every component tracks the program branch.
func (p *Predictor) Track(b bp.Branch) {
	p.meta.Track(b)
	p.bp0.Track(b)
	p.bp1.Track(b)
	p.tracked = true
}

// Metadata implements bp.MetadataProvider, embedding the component
// descriptions as in Listing 4's metadata_stats.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":          "MBPlib Tournament",
		"metapredictor": componentMetadata(p.meta),
		"predictor_0":   componentMetadata(p.bp0),
		"predictor_1":   componentMetadata(p.bp1),
	}
}

func componentMetadata(p bp.Predictor) map[string]any {
	if mp, ok := p.(bp.MetadataProvider); ok {
		return mp.Metadata()
	}
	return map[string]any{}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
