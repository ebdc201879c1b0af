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
	// pht holds every pattern table back to back: table j's entry for
	// history h is counter j<<histLen | h.
	pht utils.CounterTable
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
	// CounterBits is the PHT counter width (1..8). Default 2.
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

// maxLogCounters bounds the pattern tables to 2^30 counters (1 GiB) in
// all, the ceiling of the other single-table predictors.
const maxLogCounters = 30

// Validate reports why cfg, with defaults applied, does not describe a
// predictor New can build, or nil when it does.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.HistLen < 1 || c.HistLen > 24:
		return fmt.Errorf("twolevel: invalid history length %d", c.HistLen)
	case c.LogBHRs < 0 || c.LogBHRs > 20 || c.LogPHTs < 0 || c.LogPHTs > 16:
		return fmt.Errorf("twolevel: invalid table sizes logBHRs=%d logPHTs=%d", c.LogBHRs, c.LogPHTs)
	case c.LogPHTs+c.HistLen > maxLogCounters:
		return fmt.Errorf("twolevel: 2^%d pattern tables of 2^%d counters exceed 2^%d counters", c.LogPHTs, c.HistLen, maxLogCounters)
	case c.CounterBits < 1 || c.CounterBits > utils.MaxCounterWidth:
		return fmt.Errorf("twolevel: invalid counter width %d", c.CounterBits)
	}
	return nil
}

// New returns a two-level predictor for cfg. It panics if cfg.Validate
// fails.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	return &Predictor{
		first: cfg.First, second: cfg.Second,
		histLen: cfg.HistLen, logBHRs: cfg.LogBHRs, logPHTs: cfg.LogPHTs,
		counterBits: cfg.CounterBits,
		hmask:       1<<cfg.HistLen - 1,
		bhrs:        make([]uint64, 1<<cfg.LogBHRs),
		pht:         utils.NewCounterTable(1<<(cfg.LogPHTs+cfg.HistLen), cfg.CounterBits),
	}
}

// Variant returns the classical name of this configuration, e.g. "GAs".
func (p *Predictor) Variant() string {
	return p.first.letter(true) + "A" + p.second.letter(false)
}

// fold hashes the shifted address a into a level index of width bits; a
// global level (width 0) has the single index 0.
func fold(a uint64, width int) uint64 {
	if width == 0 {
		return 0
	}
	return utils.XorFold(a, width)
}

// index returns the counter ip's prediction reads under the current
// histories.
func (p *Predictor) index(ip uint64) uint64 {
	a := ip >> 2
	return fold(a, p.logPHTs)<<p.histLen | p.bhrs[fold(a, p.logBHRs)]
}

// Predict implements bp.Predictor.
func (p *Predictor) Predict(ip uint64) bool {
	return p.pht.Predict(p.index(ip))
}

// Train implements bp.Predictor. It runs before Track, so the counter it
// updates is the one Predict consulted.
func (p *Predictor) Train(b bp.Branch) {
	p.pht.Update(p.index(b.IP), b.Taken)
}

// Track implements bp.Predictor: record the outcome in the branch's
// history register.
func (p *Predictor) Track(b bp.Branch) {
	i := fold(b.IP>>2, p.logBHRs)
	p.bhrs[i] = (p.bhrs[i]<<1 | b2u(b.Taken)) & p.hmask
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

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
