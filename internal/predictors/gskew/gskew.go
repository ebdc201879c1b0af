// Package gskew implements the 2bc-gskew predictor of Seznec and Michaud
// ("De-aliased hybrid branch predictors"). Three banks of two-bit counters
// — a bimodal bank and two history-indexed banks with skewed hash functions
// — vote by majority (the e-gskew predictor), and a meta bank arbitrates
// between the bimodal bank and the majority. The partial update policy
// only strengthens the banks that contributed a correct prediction, which
// is what de-aliases the skewed banks.
package gskew

import (
	"fmt"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Predictor is a 2bc-gskew branch predictor.
type Predictor struct {
	bim, g0, g1, meta utils.CounterTable
	logSize           int
	hist0, hist1      int // history lengths of the two skewed banks
	ghist             uint64
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	logSize      int
	hist0, hist1 int
}

// WithLogSize sets the log2 size of each of the four banks. Default 15
// (4 × 32 Ki 2-bit counters = 32 KiB).
func WithLogSize(n int) Option { return func(c *config) { c.logSize = n } }

// WithHistoryLengths sets the history lengths of the two skewed banks.
// Defaults 9 and 18.
func WithHistoryLengths(h0, h1 int) Option {
	return func(c *config) { c.hist0, c.hist1 = h0, h1 }
}

// New returns a 2bc-gskew predictor.
func New(opts ...Option) *Predictor {
	cfg := config{logSize: 15, hist0: 9, hist1: 18}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.logSize < 1 || cfg.logSize > 28 {
		panic(fmt.Sprintf("gskew: invalid log bank size %d", cfg.logSize))
	}
	if cfg.hist0 < 1 || cfg.hist1 < cfg.hist0 || cfg.hist1 > 63 {
		panic(fmt.Sprintf("gskew: invalid history lengths %d, %d", cfg.hist0, cfg.hist1))
	}
	n := 1 << cfg.logSize
	return &Predictor{
		bim: utils.NewCounterTable(n, 2), g0: utils.NewCounterTable(n, 2),
		g1: utils.NewCounterTable(n, 2), meta: utils.NewCounterTable(n, 2),
		logSize: cfg.logSize, hist0: cfg.hist0, hist1: cfg.hist1,
	}
}

// Skewing functions: each bank mixes address and history with a different
// odd multiplier before folding, in the spirit of the paper's inter-bank
// dispersion functions.
const (
	skew0 = 0x9e3779b97f4a7c15
	skew1 = 0xc2b2ae3d27d4eb4f
	skew2 = 0x165667b19e3779f9
)

// indices returns the bimodal, two skewed and meta bank indices of ip
// under the current global history.
func (p *Predictor) indices(ip uint64) (ib, i0, i1, im uint64) {
	return utils.XorFold(ip>>2, p.logSize),
		utils.XorFold((ip^p.ghist&(1<<p.hist0-1))*skew0, p.logSize),
		utils.XorFold((ip^p.ghist&(1<<p.hist1-1))*skew1, p.logSize),
		utils.XorFold(ip*skew2, p.logSize)
}

func majority(a, b, c bool) bool {
	return (a && b) || (a && c) || (b && c)
}

// Predict implements bp.Predictor: the meta bank chooses between the
// bimodal bank and the majority vote of all three banks.
func (p *Predictor) Predict(ip uint64) bool {
	ib, i0, i1, im := p.indices(ip)
	bimP := p.bim.Predict(ib)
	if p.meta.Predict(im) {
		return majority(bimP, p.g0.Predict(i0), p.g1.Predict(i1))
	}
	return bimP
}

// Train implements bp.Predictor.
func (p *Predictor) Train(b bp.Branch) {
	ib, i0, i1, im := p.indices(b.IP)
	p.resolve(ib, i0, i1, im, b.Taken)
}

// resolve reads the banks at the given indices, applies the 2bc-gskew
// partial update policy toward the outcome, and returns the prediction as
// of entry. The meta bank learns which side was right whenever bimodal and
// majority disagree; on a correct prediction only the agreeing banks of
// the providing side are strengthened; on a misprediction all three banks
// retrain. Votes and outcomes are near-random, so the policy is computed
// on 0/1 integers and applied with UpdateIf: data, not control flow.
// Shared by Train and the batch kernel.
func (p *Predictor) resolve(ib, i0, i1, im uint64, taken bool) bool {
	t := b2i(taken)
	bim, g0, g1 := b2i(p.bim.Predict(ib)), b2i(p.g0.Predict(i0)), b2i(p.g1.Predict(i1))
	useGskew := b2i(p.meta.Predict(im))
	maj := bim&g0 | bim&g1 | g0&g1
	// Meta outcome bit means "the majority is the right provider".
	p.meta.UpdateIf(im, maj == t, bim != maj)
	pred := bim ^ (bim^maj)&useGskew // useGskew ? maj : bim
	wrong := pred ^ t
	p.bim.UpdateIf(ib, taken, wrong|(1-useGskew)|(1^bim^t) != 0)
	p.g0.UpdateIf(i0, taken, wrong|useGskew&(1^g0^t) != 0)
	p.g1.UpdateIf(i1, taken, wrong|useGskew&(1^g1^t) != 0)
	return pred != 0
}

// Track implements bp.Predictor: shift the outcome into the global history.
func (p *Predictor) Track(b bp.Branch) {
	p.ghist = p.ghist<<1 | b2u(b.Taken)
}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":            "MBPlib 2bc-gskew",
		"log_bank_size":   p.logSize,
		"history_lengths": []int{p.hist0, p.hist1},
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func b2u(b bool) uint64 { return uint64(b2i(b)) }
