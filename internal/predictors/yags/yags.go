// Package yags implements YAGS — Yet Another Global Scheme (Eden and Mudge,
// MICRO 1998). A bimodal choice table captures each branch's bias; two
// small tagged "exception caches" — a taken cache and a not-taken cache —
// store only the history contexts in which a branch deviates from that
// bias. The division of labour keeps the direction caches tiny: they never
// waste entries on the easy, bias-following cases.
package yags

import (
	"fmt"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// exceptionCache is one exception cache: entry i is a partial tag (zero
// when the entry is empty) and a two-bit counter.
type exceptionCache struct {
	tags []uint16
	ctrs utils.CounterTable
}

func newExceptionCache(logSize int) exceptionCache {
	return exceptionCache{tags: make([]uint16, 1<<logSize), ctrs: utils.NewCounterTable(1<<logSize, 2)}
}

// Predictor is a YAGS branch predictor.
type Predictor struct {
	choice  utils.CounterTable
	tCache  exceptionCache // consulted when the choice says "not taken"
	ntCache exceptionCache // consulted when the choice says "taken"

	logChoice int
	logCache  int
	tagBits   int
	histLen   int
	ghist     uint64

	exceptionHits uint64
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	logChoice int
	logCache  int
	tagBits   int
	histLen   int
}

// WithLogChoice sets the log2 size of the choice table. Default 14.
func WithLogChoice(n int) Option { return func(c *config) { c.logChoice = n } }

// WithLogCache sets the log2 size of each exception cache. Default 12.
func WithLogCache(n int) Option { return func(c *config) { c.logCache = n } }

// WithTagBits sets the exception-cache tag width. Default 8, as in the
// paper's 6-to-8-bit evaluation.
func WithTagBits(n int) Option { return func(c *config) { c.tagBits = n } }

// WithHistoryLength sets the global history length. Default 12.
func WithHistoryLength(n int) Option { return func(c *config) { c.histLen = n } }

// New returns a YAGS predictor.
func New(opts ...Option) *Predictor {
	cfg := config{logChoice: 14, logCache: 12, tagBits: 8, histLen: 12}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.logChoice < 1 || cfg.logChoice > 26 || cfg.logCache < 1 || cfg.logCache > 26 {
		panic(fmt.Sprintf("yags: invalid table sizes %d/%d", cfg.logChoice, cfg.logCache))
	}
	if cfg.tagBits < 1 || cfg.tagBits > 15 || cfg.histLen < 1 || cfg.histLen > 63 {
		panic(fmt.Sprintf("yags: invalid tagBits=%d histLen=%d", cfg.tagBits, cfg.histLen))
	}
	p := &Predictor{
		choice:    utils.NewCounterTable(1<<cfg.logChoice, 2),
		tCache:    newExceptionCache(cfg.logCache),
		ntCache:   newExceptionCache(cfg.logCache),
		logChoice: cfg.logChoice,
		logCache:  cfg.logCache,
		tagBits:   cfg.tagBits,
		histLen:   cfg.histLen,
	}
	return p
}

func (p *Predictor) choiceIndex(ip uint64) uint64 {
	return utils.XorFold(ip>>2, p.logChoice)
}

func (p *Predictor) cacheIndex(ip uint64) uint64 {
	h := p.ghist & (1<<p.histLen - 1)
	return utils.XorFold(ip^h, p.logCache)
}

func (p *Predictor) tag(ip uint64) uint16 {
	return uint16(utils.XorFold(utils.Mix(ip), p.tagBits)) | 1<<p.tagBits // validity bit
}

// lookup resolves the prediction: the exception cache opposite to the bias
// overrides the choice table on a tag hit.
func (p *Predictor) lookup(ip uint64) (pred, biasTaken, hit bool) {
	biasTaken = p.choice.Predict(p.choiceIndex(ip))
	cache := &p.ntCache
	if !biasTaken {
		cache = &p.tCache
	}
	if i := p.cacheIndex(ip); cache.tags[i] == p.tag(ip) {
		return cache.ctrs.Predict(i), biasTaken, true
	}
	return biasTaken, biasTaken, false
}

// Predict implements bp.Predictor.
func (p *Predictor) Predict(ip uint64) bool {
	pred, _, _ := p.lookup(ip)
	return pred
}

// Train implements bp.Predictor, following the paper's update policy: the
// exception cache trains on a hit (and counts as the provider); a miss that
// the bias got wrong allocates an exception entry; the choice table trains
// unless it was overridden by a correct exception.
func (p *Predictor) Train(b bp.Branch) {
	ip, taken := b.IP, b.Taken
	_, biasTaken, hit := p.lookup(ip)
	cache := &p.ntCache
	if !biasTaken {
		cache = &p.tCache
	}
	i := p.cacheIndex(ip)
	if hit {
		p.exceptionHits++
		cache.ctrs.Update(i, taken)
	} else if taken != biasTaken {
		// The bias failed and no exception covered it: allocate.
		cache.tags[i] = p.tag(ip)
		cache.ctrs.Set(i, 0)
		cache.ctrs.Update(i, taken)
	}
	// The choice table keeps learning the bias except when an exception
	// entry just correctly contradicted it (so rare deviations do not
	// erode a strong bias).
	if !(hit && cache.ctrs.Predict(i) == taken && taken != biasTaken) {
		p.choice.Update(p.choiceIndex(ip), taken)
	}
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
		"name":           "MBPlib YAGS",
		"log_choice":     p.logChoice,
		"log_cache":      p.logCache,
		"tag_bits":       p.tagBits,
		"history_length": p.histLen,
	}
}

// Statistics implements bp.StatsProvider.
func (p *Predictor) Statistics() map[string]any {
	return map[string]any{"exception_hits": p.exceptionHits}
}
