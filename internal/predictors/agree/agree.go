// Package agree implements the agree predictor (Sprangle, Chappell, Alsup
// and Patt, ISCA 1997). Each branch gets a bias bit recording its usual
// direction; the global-history-indexed table then predicts whether the
// branch will *agree* with its bias rather than whether it is taken.
// Re-encoding the prediction this way turns destructive aliasing into
// (mostly) constructive aliasing: two unrelated branches that share a
// history-table entry usually both agree with their own biases, so the
// shared counter trains in one direction instead of fighting itself.
package agree

import (
	"fmt"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Predictor is an agree branch predictor.
type Predictor struct {
	agreeTable utils.CounterTable
	bias       []uint8 // 0 = unset, 1 = not taken, 2 = taken
	logAgree   int
	logBias    int
	histLen    int
	ghist      uint64
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	logAgree int
	logBias  int
	histLen  int
}

// WithLogAgree sets the log2 size of the agree table. Default 15.
func WithLogAgree(n int) Option { return func(c *config) { c.logAgree = n } }

// WithLogBias sets the log2 size of the bias-bit table. Default 14.
func WithLogBias(n int) Option { return func(c *config) { c.logBias = n } }

// WithHistoryLength sets the global history length. Default 14.
func WithHistoryLength(n int) Option { return func(c *config) { c.histLen = n } }

// New returns an agree predictor.
func New(opts ...Option) *Predictor {
	cfg := config{logAgree: 15, logBias: 14, histLen: 14}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.logAgree < 1 || cfg.logAgree > 26 || cfg.logBias < 1 || cfg.logBias > 26 {
		panic(fmt.Sprintf("agree: invalid table sizes %d/%d", cfg.logAgree, cfg.logBias))
	}
	if cfg.histLen < 1 || cfg.histLen > 63 {
		panic(fmt.Sprintf("agree: invalid history length %d", cfg.histLen))
	}
	return &Predictor{
		agreeTable: utils.NewCounterTable(1<<cfg.logAgree, 2),
		bias:       make([]uint8, 1<<cfg.logBias),
		logAgree:   cfg.logAgree,
		logBias:    cfg.logBias,
		histLen:    cfg.histLen,
	}
}

func (p *Predictor) agreeIndex(ip uint64) uint64 {
	h := p.ghist & (1<<p.histLen - 1)
	return utils.XorFold(ip^h, p.logAgree)
}

func (p *Predictor) biasIndex(ip uint64) uint64 {
	return utils.XorFold(ip>>2, p.logBias)
}

// biasTaken returns the branch's recorded bias; unset biases default to
// taken (the common case for backward branches, and what the hardware's
// first-execution heuristic would set).
func (p *Predictor) biasTaken(ip uint64) bool {
	return p.bias[p.biasIndex(ip)] != 1
}

// Predict implements bp.Predictor: bias XNOR agree.
func (p *Predictor) Predict(ip uint64) bool {
	agrees := p.agreeTable.Predict(p.agreeIndex(ip))
	return agrees == p.biasTaken(ip)
}

// Train implements bp.Predictor. The bias bit is set once, on the branch's
// first execution (as the original sets it on allocation into the BTB);
// the agree counter then trains toward "did the outcome match the bias".
func (p *Predictor) Train(b bp.Branch) {
	bi := p.biasIndex(b.IP)
	if p.bias[bi] == 0 {
		if b.Taken {
			p.bias[bi] = 2
		} else {
			p.bias[bi] = 1
		}
	}
	agreed := b.Taken == p.biasTaken(b.IP)
	p.agreeTable.Update(p.agreeIndex(b.IP), agreed)
}

// Track implements bp.Predictor.
func (p *Predictor) Track(b bp.Branch) {
	p.ghist <<= 1
	if b.Taken {
		p.ghist |= 1
	}
}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":           "MBPlib Agree",
		"log_agree":      p.logAgree,
		"log_bias":       p.logBias,
		"history_length": p.histLen,
	}
}
