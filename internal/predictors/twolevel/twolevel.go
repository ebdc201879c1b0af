// Package twolevel implements the Yeh–Patt family of two-level adaptive
// predictors in its generalized form: a first level of branch history
// registers and a second level of pattern history tables, each of which can
// be global, per-set, or per-address. All nine classical variants — GAg,
// GAs, GAp, SAg, SAs, SAp, PAg, PAs, PAp — are instances of one structure,
// as in the MBPlib examples library (Table II).
package twolevel

import (
	"fmt"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Level selects how a predictor level is shared among branches.
type Level int

// Sharing levels. In the classical naming, the first level letter is
// G/S/P and the second level letter is g/s/p.
const (
	Global Level = iota
	PerSet
	PerAddress
)

func (l Level) letter(upper bool) string {
	letters := [...]string{"g", "s", "p"}
	if upper {
		letters = [...]string{"G", "S", "P"}
	}
	if l < Global || l > PerAddress {
		return "?"
	}
	return letters[l]
}

// Predictor is a generalized two-level adaptive predictor.
type Predictor struct {
	first, second Level
	histLen       int
	logBHRs       int // log2 number of history registers (0 when Global)
	logPHTs       int // log2 number of pattern tables (0 when Global)
	counterBits   int
	hmask         uint64
	bhrs          []uint64
	phts          [][]utils.SignedCounter
}

// Config parameterises a two-level predictor.
type Config struct {
	// First selects the sharing of the history registers; Second the
	// sharing of the pattern history tables.
	First, Second Level
	// HistLen is the history length per register (1..24; the PHT has
	// 2^HistLen entries). Default 12.
	HistLen int
	// LogBHRs is the log2 number of history registers for PerSet/PerAddress
	// first levels (ignored for Global). Defaults: 4 for PerSet, 10 for
	// PerAddress.
	LogBHRs int
	// LogPHTs is the log2 number of pattern tables for PerSet/PerAddress
	// second levels (ignored for Global). Defaults: 4 for PerSet, 10 for
	// PerAddress.
	LogPHTs int
	// CounterBits is the PHT counter width. Default 2.
	CounterBits int
}

func (c Config) withDefaults() Config {
	if c.HistLen == 0 {
		c.HistLen = 12
	}
	if c.LogBHRs == 0 {
		switch c.First {
		case PerSet:
			c.LogBHRs = 4
		case PerAddress:
			c.LogBHRs = 10
		}
	}
	if c.First == Global {
		c.LogBHRs = 0
	}
	if c.LogPHTs == 0 {
		switch c.Second {
		case PerSet:
			c.LogPHTs = 4
		case PerAddress:
			c.LogPHTs = 10
		}
	}
	if c.Second == Global {
		c.LogPHTs = 0
	}
	if c.CounterBits == 0 {
		c.CounterBits = 2
	}
	return c
}

// New returns a two-level predictor for cfg.
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	if cfg.HistLen < 1 || cfg.HistLen > 24 {
		panic(fmt.Sprintf("twolevel: invalid history length %d", cfg.HistLen))
	}
	if cfg.LogBHRs < 0 || cfg.LogBHRs > 20 || cfg.LogPHTs < 0 || cfg.LogPHTs > 16 {
		panic(fmt.Sprintf("twolevel: invalid table sizes logBHRs=%d logPHTs=%d", cfg.LogBHRs, cfg.LogPHTs))
	}
	p := &Predictor{
		first: cfg.First, second: cfg.Second,
		histLen: cfg.HistLen, logBHRs: cfg.LogBHRs, logPHTs: cfg.LogPHTs,
		counterBits: cfg.CounterBits,
		hmask:       1<<cfg.HistLen - 1,
		bhrs:        make([]uint64, 1<<cfg.LogBHRs),
		phts:        make([][]utils.SignedCounter, 1<<cfg.LogPHTs),
	}
	zero := utils.NewSignedCounter(cfg.CounterBits, 0)
	for i := range p.phts {
		p.phts[i] = make([]utils.SignedCounter, 1<<cfg.HistLen)
		for j := range p.phts[i] {
			p.phts[i][j] = zero
		}
	}
	return p
}

// Variant returns the classical name of this configuration, e.g. "GAs".
func (p *Predictor) Variant() string {
	return p.first.letter(true) + "A" + p.second.letter(false)
}

func (p *Predictor) bhrIndex(ip uint64) uint64 {
	if p.logBHRs == 0 {
		return 0
	}
	return utils.XorFold(ip>>2, p.logBHRs)
}

func (p *Predictor) phtIndex(ip uint64) uint64 {
	if p.logPHTs == 0 {
		return 0
	}
	return utils.XorFold(ip>>2, p.logPHTs)
}

func (p *Predictor) counter(ip uint64) *utils.SignedCounter {
	hist := p.bhrs[p.bhrIndex(ip)] & p.hmask
	return &p.phts[p.phtIndex(ip)][hist]
}

// Predict implements bp.Predictor.
func (p *Predictor) Predict(ip uint64) bool {
	return p.counter(ip).Predict()
}

// Train implements bp.Predictor. It runs before Track, so the counter it
// updates is the one Predict consulted.
func (p *Predictor) Train(b bp.Branch) {
	p.counter(b.IP).SumOrSub(b.Taken)
}

// Track implements bp.Predictor: record the outcome in the branch's
// history register.
func (p *Predictor) Track(b bp.Branch) {
	i := p.bhrIndex(b.IP)
	p.bhrs[i] <<= 1
	if b.Taken {
		p.bhrs[i] |= 1
	}
	p.bhrs[i] &= p.hmask
}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":           "MBPlib Two-Level " + p.Variant(),
		"history_length": p.histLen,
		"log_bhrs":       p.logBHRs,
		"log_phts":       p.logPHTs,
		"counter_bits":   p.counterBits,
	}
}
