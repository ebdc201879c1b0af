// Package alpha implements the Alpha 21264 tournament predictor (Kessler,
// IEEE Micro 1999), the most famous shipped hybrid: a two-level local
// predictor (per-branch history into 3-bit counters), a global predictor
// (2-bit counters indexed by the global history), and a choice predictor
// (2-bit counters, also global-history-indexed) that picks the winner. The
// hardware's geometry — 1K×10-bit local histories, 1K×3-bit local counters,
// 4K×2-bit global and choice tables with 12 bits of path history — is the
// default configuration.
package alpha

import (
	"fmt"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Predictor is an Alpha-21264-style tournament predictor.
type Predictor struct {
	localHist []uint16
	localPred utils.CounterTable
	globalT   utils.CounterTable
	choice    utils.CounterTable

	logLocal     int // log2 local history/counter table sizes
	localHistLen int
	logGlobal    int // log2 global/choice table sizes (= history length)
	ghist        uint64
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	logLocal     int
	localHistLen int
	logGlobal    int
}

// WithLogLocal sets the log2 number of local histories. Default 10 (1K).
func WithLogLocal(n int) Option { return func(c *config) { c.logLocal = n } }

// WithLocalHistoryLength sets the per-branch history length. Default 10.
func WithLocalHistoryLength(n int) Option { return func(c *config) { c.localHistLen = n } }

// WithLogGlobal sets the log2 size of the global and choice tables, which
// is also the global history length. Default 12 (4K).
func WithLogGlobal(n int) Option { return func(c *config) { c.logGlobal = n } }

// New returns an Alpha 21264 tournament predictor.
func New(opts ...Option) *Predictor {
	cfg := config{logLocal: 10, localHistLen: 10, logGlobal: 12}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.logLocal < 1 || cfg.logLocal > 20 || cfg.logGlobal < 1 || cfg.logGlobal > 26 {
		panic(fmt.Sprintf("alpha: invalid table sizes local=%d global=%d", cfg.logLocal, cfg.logGlobal))
	}
	if cfg.localHistLen < 1 || cfg.localHistLen > 16 {
		panic(fmt.Sprintf("alpha: invalid local history length %d", cfg.localHistLen))
	}
	p := &Predictor{
		localHist:    make([]uint16, 1<<cfg.logLocal),
		localPred:    utils.NewCounterTable(1<<cfg.localHistLen, 3), // 3-bit, as in hardware
		globalT:      utils.NewCounterTable(1<<cfg.logGlobal, 2),
		choice:       utils.NewCounterTable(1<<cfg.logGlobal, 2),
		logLocal:     cfg.logLocal,
		localHistLen: cfg.localHistLen,
		logGlobal:    cfg.logGlobal,
	}
	return p
}

func (p *Predictor) localIndex(ip uint64) uint64 {
	return utils.XorFold(ip>>2, p.logLocal)
}

// localCounter returns the index of ip's local counter.
func (p *Predictor) localCounter(ip uint64) uint64 {
	return uint64(p.localHist[p.localIndex(ip)]) & (1<<p.localHistLen - 1)
}

func (p *Predictor) globalIndex() uint64 {
	return p.ghist & (1<<p.logGlobal - 1)
}

// components returns the two component predictions and the chooser's pick.
func (p *Predictor) components(ip uint64) (localPred, globalPred, useGlobal bool) {
	localPred = p.localPred.Predict(p.localCounter(ip))
	gi := p.globalIndex()
	globalPred = p.globalT.Predict(gi)
	useGlobal = p.choice.Predict(gi)
	return
}

// Predict implements bp.Predictor.
func (p *Predictor) Predict(ip uint64) bool {
	localPred, globalPred, useGlobal := p.components(ip)
	if useGlobal {
		return globalPred
	}
	return localPred
}

// Train implements bp.Predictor. Both components always train; the chooser
// trains only when they disagree, toward whichever was right — the
// hardware's update rule.
func (p *Predictor) Train(b bp.Branch) {
	localPred, globalPred, _ := p.components(b.IP)
	gi := p.globalIndex()
	if localPred != globalPred {
		p.choice.Update(gi, globalPred == b.Taken)
	}
	p.localPred.Update(p.localCounter(b.IP), b.Taken)
	p.globalT.Update(gi, b.Taken)
	// The per-branch local history is part of the prediction structures in
	// the 21264 (updated at retirement); it advances here rather than in
	// Track so a meta-predictor reusing this component trains it
	// consistently.
	li := p.localIndex(b.IP)
	p.localHist[li] = p.localHist[li]<<1 | b2u16(b.Taken)
}

// Track implements bp.Predictor: the global history advances for every
// branch.
func (p *Predictor) Track(b bp.Branch) {
	p.ghist <<= 1
	if b.Taken {
		p.ghist |= 1
	}
}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":              "MBPlib Alpha 21264",
		"log_local":         p.logLocal,
		"local_history_len": p.localHistLen,
		"log_global":        p.logGlobal,
	}
}

func b2u16(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}
