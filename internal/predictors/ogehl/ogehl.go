// Package ogehl implements Seznec's Optimized GEometric History Length
// predictor (O-GEHL, ISCA 2005), the geometric-history ancestor of TAGE: a
// set of counter tables indexed by hashes of geometrically growing history
// slices whose signed sum decides the prediction. Unlike the hashed
// perceptron, the update is GEHL-style — all tables move on a misprediction
// or a low-magnitude sum — and both the threshold and the effective history
// lengths adapt: when long-history tables keep disagreeing with the
// outcome, the predictor shortens its reach.
package ogehl

import (
	"fmt"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Predictor is an O-GEHL branch predictor.
type Predictor struct {
	tables  []utils.CounterTable
	lengths []int
	logSize int
	ctrBits int

	// folds holds the global history and, per table, its history length
	// folded into logSize bits.
	folds *utils.FoldBank

	theta int
	tc    utils.SignedCounter // threshold trainer

	// Dynamic history-length fitting: ac tracks whether the longest tables
	// help; when it saturates low, the two longest tables are re-indexed
	// with the intermediate length, that of the middle table.
	ac        utils.SignedCounter
	shortMode bool

	// Cached sum for the last predicted IP.
	lastIP  uint64
	lastSum int
	haveSum bool

	updates uint64
	refits  uint64
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	lengths []int
	logSize int
	ctrBits int
}

// WithHistoryLengths sets the per-table history lengths (first entry 0 for
// the address-indexed table). Default {0, 3, 5, 8, 12, 19, 31, 49, 75, 125},
// close to the paper's geometric series.
func WithHistoryLengths(l []int) Option { return func(c *config) { c.lengths = l } }

// WithLogSize sets the log2 entries per table. Default 11.
func WithLogSize(n int) Option { return func(c *config) { c.logSize = n } }

// WithCounterBits sets the counter width. Default 5, as in the paper.
func WithCounterBits(n int) Option { return func(c *config) { c.ctrBits = n } }

// New returns an O-GEHL predictor.
func New(opts ...Option) *Predictor {
	cfg := config{
		lengths: []int{0, 3, 5, 8, 12, 19, 31, 49, 75, 125},
		logSize: 11,
		ctrBits: 5,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.lengths) < 2 {
		panic("ogehl: need at least two tables")
	}
	if cfg.logSize < 1 || cfg.logSize > 26 {
		panic(fmt.Sprintf("ogehl: invalid log table size %d", cfg.logSize))
	}
	if cfg.ctrBits < 2 || cfg.ctrBits > 8 {
		panic(fmt.Sprintf("ogehl: invalid counter width %d", cfg.ctrBits))
	}
	for i, l := range cfg.lengths {
		if l < 0 || (i > 0 && l <= cfg.lengths[i-1] && l != 0) {
			panic(fmt.Sprintf("ogehl: history lengths must be ascending: %v", cfg.lengths))
		}
	}
	p := &Predictor{
		lengths: cfg.lengths,
		logSize: cfg.logSize,
		ctrBits: cfg.ctrBits,
		theta:   len(cfg.lengths),
		tc:      utils.NewSignedCounter(7, 0),
		ac:      utils.NewSignedCounter(9, 0),
	}
	folds := make([]utils.Fold, 0, len(cfg.lengths))
	for _, l := range cfg.lengths {
		p.tables = append(p.tables, utils.NewCounterTable(1<<cfg.logSize, cfg.ctrBits))
		folds = append(folds, utils.Fold{Length: l, Width: cfg.logSize})
	}
	p.folds = utils.NewFoldBank(folds)
	return p
}

// fold returns the folded history table t is currently indexed with: in
// short mode the two longest tables fall back to the intermediate length
// (the dynamic fitting of the paper, simplified to two modes). All folds
// are maintained incrementally in Track, so indexing is O(1).
func (p *Predictor) fold(t int) uint64 {
	if p.shortMode && t >= len(p.lengths)-2 {
		return p.folds.Value(len(p.lengths) / 2)
	}
	return p.folds.Value(t)
}

func (p *Predictor) index(ip uint64, t int) uint64 {
	return utils.XorFold(ip^(ip>>uint(t+1))^p.fold(t)^uint64(t)*0x9e3779b97f4a7c15, p.logSize)
}

func (p *Predictor) sum(ip uint64) int {
	s := len(p.tables) / 2 // centring term, as GEHL biases toward taken on ties
	for t := range p.tables {
		s += p.tables[t].Get(p.index(ip, t))
	}
	return s
}

// Predict implements bp.Predictor.
//
//mbpvet:impure caches the table sum for Train's threshold update; the sum is recomputed if Train sees another ip, so predictions are unaffected
func (p *Predictor) Predict(ip uint64) bool {
	s := p.sum(ip)
	p.lastIP, p.lastSum, p.haveSum = ip, s, true
	return s >= 0
}

// Train implements bp.Predictor: GEHL update with adaptive threshold and
// dynamic history-length fitting.
func (p *Predictor) Train(b bp.Branch) {
	s := p.lastSum
	if !p.haveSum || p.lastIP != b.IP {
		s = p.sum(b.IP)
	}
	pred := s >= 0
	mag := s
	if mag < 0 {
		mag = -mag
	}
	mispredicted := pred != b.Taken
	if mispredicted || mag <= p.theta {
		p.updates++
		for t := range p.tables {
			p.tables[t].Update(p.index(b.IP, t), b.Taken)
		}
	}
	// Adaptive threshold.
	if mispredicted {
		p.tc.Add(1)
		if p.tc.Get() == p.tc.Max() {
			p.theta++
			p.tc.Set(0)
		}
	} else if mag <= p.theta {
		p.tc.Add(-1)
		if p.tc.Get() == p.tc.Min() {
			if p.theta > 1 {
				p.theta--
			}
			p.tc.Set(0)
		}
	}
	// History-length fitting: did the longest tables vote with the outcome?
	long := p.tables[len(p.tables)-1].Predict(p.index(b.IP, len(p.tables)-1))
	if long == b.Taken {
		p.ac.Add(1)
	} else {
		p.ac.Add(-1)
	}
	if p.ac.IsSaturated() {
		newMode := p.ac.Get() == p.ac.Min()
		if newMode != p.shortMode {
			p.shortMode = newMode
			p.refits++
		}
		p.ac.Set(0)
	}
}

// Track implements bp.Predictor.
func (p *Predictor) Track(b bp.Branch) {
	p.folds.Push(b.Taken)
	p.haveSum = false
}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":            "MBPlib O-GEHL",
		"history_lengths": append([]int(nil), p.lengths...),
		"log_table_size":  p.logSize,
		"counter_bits":    p.ctrBits,
	}
}

// Statistics implements bp.StatsProvider.
func (p *Predictor) Statistics() map[string]any {
	return map[string]any{
		"threshold":     p.theta,
		"table_updates": p.updates,
		"length_refits": p.refits,
		"short_mode":    p.shortMode,
	}
}
