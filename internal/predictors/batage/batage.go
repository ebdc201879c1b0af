// Package batage implements BATAGE, Michaud's Bayesian alternative to TAGE
// ("An alternative TAGE-like conditional branch predictor"). The tagged
// geometric-history tables of TAGE remain, but each entry holds a dual
// counter — separate taken / not-taken counts — whose ratio gives a direct
// confidence estimate. Prediction selects the highest-confidence matching
// entry (ties to the longest history), replacing TAGE's usefulness bits;
// allocation is rate-limited by controlled allocation throttling (CAT) and
// entries decay probabilistically, which requires a pseudo-random number
// generator — the reason the paper calls BATAGE computationally complex
// even among state-of-the-art predictors (§VII-A).
package batage

import (
	"math/bits"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/tage"
	"mbplib/internal/utils"
)

// entry is one tagged BATAGE entry: a partial tag and a dual counter.
type entry struct {
	tag  uint16
	dual utils.DualCounter
}

type table struct {
	spec    tage.TableSpec
	entries []entry
}

// Predictor is a BATAGE branch predictor.
type Predictor struct {
	base    []utils.DualCounter
	logBase int
	tables  []table
	hash    *tage.Hasher
	rng     *utils.Rand

	// cat is the controlled-allocation-throttling counter: it grows when
	// allocations evict still-confident entries (a sign of over-allocation)
	// and shrinks otherwise; the allocation probability falls as it grows.
	cat    int
	catMax int

	// Prediction cache, valid for lastIP until the next Track.
	lastIP    uint64
	haveCache bool
	cache     lookup

	allocations uint64
	throttled   uint64
	decays      uint64
}

// lookup is the result of scanning the tables for one address. The
// Predictor owns exactly one, the cache, which scan fills in place.
type lookup struct {
	idx      []uint32
	tag      []uint16
	hits     uint64 // set of matching tables
	baseIdx  uint32
	provider int // index into tables, or -1 for the base
	pred     bool
	conf     int
}

// longest returns the longest-history table in the match set hits, or -1
// when it is empty.
func longest(hits uint64) int { return bits.Len64(hits) - 1 }

// Option configures the predictor.
type Option func(*config)

type config struct {
	tables  []tage.TableSpec
	logBase int
	catMax  int
	seed    uint64
}

// WithTables sets the tagged-table geometry (ascending history lengths).
func WithTables(specs []tage.TableSpec) Option { return func(c *config) { c.tables = specs } }

// WithGeometric builds n tables with geometric history lengths, reusing the
// TAGE series helper.
func WithGeometric(n, minHist, maxHist, logSize, tagBits int) Option {
	return func(c *config) {
		c.tables = tage.GeometricTables(n, minHist, maxHist, logSize, tagBits)
	}
}

// WithLogBase sets the base table's log size. Default 13.
func WithLogBase(n int) Option { return func(c *config) { c.logBase = n } }

// WithCATMax sets the throttling ceiling. Default 16.
func WithCATMax(n int) Option { return func(c *config) { c.catMax = n } }

// WithSeed seeds the allocation randomiser. Default 1.
func WithSeed(s uint64) Option { return func(c *config) { c.seed = s } }

// New returns a BATAGE predictor. The default geometry matches the default
// TAGE: 8 tables, histories 4..320, 2^10 entries, 11-bit tags.
func New(opts ...Option) *Predictor {
	cfg := config{logBase: 13, catMax: 16, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.tables == nil {
		cfg.tables = tage.GeometricTables(8, 4, 320, 10, 11)
	}
	p := &Predictor{
		base:    make([]utils.DualCounter, 1<<cfg.logBase),
		logBase: cfg.logBase,
		hash:    tage.NewHasher(cfg.tables, cfg.logBase),
		rng:     utils.NewRand(cfg.seed),
		catMax:  cfg.catMax,
	}
	for _, ts := range cfg.tables {
		p.tables = append(p.tables, table{spec: ts, entries: make([]entry, 1<<ts.LogSize)})
	}
	p.cache.idx = make([]uint32, len(p.tables))
	p.cache.tag = make([]uint16, len(p.tables))
	return p
}

// scan computes the Bayesian selection into l: among all matching entries
// and the base, pick the one with the best (lowest) dual-counter confidence
// class, ties going to the longest history.
func (p *Predictor) scan(ip uint64, l *lookup) {
	l.baseIdx = p.hash.Hash(ip, l.idx, l.tag)
	tables := p.tables
	idx, tag := l.idx[:len(tables)], l.tag[:len(tables)]
	var hits uint64
	for i := range tables {
		var hit uint64
		if tables[i].entries[idx[i]].tag == tag[i] {
			hit = 1
		}
		hits |= hit << i
	}
	l.hits = hits
	// Hits are visited longest-history-first and must beat the incumbent
	// strictly, so ties resolve toward the longer history; the base is
	// consulted last and wins only with strictly better confidence —
	// otherwise a majority-trained, saturated base would override tagged
	// entries that learned the per-context outcome.
	var best *utils.DualCounter
	l.conf = 3 // worse than any real confidence class
	l.provider = -1
	for ; hits != 0; hits &^= 1 << longest(hits) {
		i := longest(hits)
		d := &tables[i].entries[idx[i]].dual
		if c := d.Confidence(); c < l.conf {
			best, l.conf, l.provider = d, c, i
		}
	}
	baseDual := &p.base[l.baseIdx]
	if c := baseDual.Confidence(); best == nil || c < l.conf {
		best, l.conf, l.provider = baseDual, c, -1
	}
	l.pred = best.Predict()
}

func (p *Predictor) cached(ip uint64) *lookup {
	if !p.haveCache || p.lastIP != ip {
		p.scan(ip, &p.cache)
		p.lastIP = ip
		p.haveCache = true
	}
	return &p.cache
}

// Predict implements bp.Predictor.
//
//mbpvet:impure lookup memoization only: repeated Predicts for the same ip return the cached scan, and Track invalidates it, so observable predictions never change
func (p *Predictor) Predict(ip uint64) bool {
	return p.cached(ip).pred
}

// Train implements bp.Predictor.
func (p *Predictor) Train(b bp.Branch) {
	p.trainLookup(p.cached(b.IP), b.Taken)
}

// trainLookup applies the full BATAGE update for one resolved branch whose
// components were scanned into l. Shared by Train (which goes through the
// lookup cache) and the batch kernel (which scans directly).
//
// The longest matching entry always trains (it must be able to build
// confidence and take over the prediction); when it is not yet highly
// confident, the next-longest hit — or ultimately the base — trains too, so
// the fallback chain stays warm. A provider that is neither (a shorter hit
// chosen purely on confidence) also trains.
func (p *Predictor) trainLookup(l *lookup, taken bool) {
	if l.hits == 0 {
		p.base[l.baseIdx].Update(taken)
	} else {
		first := longest(l.hits)
		second := longest(l.hits &^ (1 << first))
		e := &p.tables[first].entries[l.idx[first]]
		e.dual.Update(taken)
		if !e.dual.IsHighConfidence() {
			if second >= 0 {
				p.tables[second].entries[l.idx[second]].dual.Update(taken)
			} else {
				p.base[l.baseIdx].Update(taken)
			}
		}
		if l.provider >= 0 && l.provider != first && l.provider != second {
			p.tables[l.provider].entries[l.idx[l.provider]].dual.Update(taken)
		}
	}

	if l.pred != taken {
		p.allocate(l, taken)
	}
}

// allocate claims an entry in a longer-history table, throttled by CAT: the
// more often allocations evict confident (presumably useful) entries, the
// lower the allocation probability, protecting the tables from churn on
// hard-to-predict branches. Skipped allocations decay a random candidate
// instead, opening space for the future.
func (p *Predictor) allocate(l *lookup, taken bool) {
	// Allocation goes above the longest hit (as in TAGE), not above the
	// confidence-chosen provider: clobbering a longer hit that is still
	// building confidence would reset it forever.
	start := longest(l.hits) + 1
	if start >= len(p.tables) {
		return
	}
	// Throttle: skip the attempt entirely with probability cat/(catMax+1).
	if p.rng.Intn(p.catMax+1) < p.cat {
		p.throttled++
		return
	}
	// Walk the candidate tables shortest-first. A still-confident victim is
	// presumed useful: it is decayed rather than evicted, and the CAT
	// counter grows, lowering future allocation pressure. The first
	// non-confident victim is replaced and CAT relaxes.
	for i := start; i < len(p.tables); i++ {
		e := &p.tables[i].entries[l.idx[i]]
		if e.tag != l.tag[i] && e.dual.IsHighConfidence() {
			e.dual.Decay()
			p.decays++
			p.cat = min(p.cat+1, p.catMax)
			continue
		}
		e.tag = l.tag[i]
		e.dual = utils.DualCounter{}
		e.dual.Update(taken)
		p.allocations++
		if p.cat > 0 {
			p.cat--
		}
		return
	}
}

// Track implements bp.Predictor.
func (p *Predictor) Track(b bp.Branch) {
	p.hash.Push(b.Taken)
	p.haveCache = false
}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	specs := make([]map[string]any, len(p.tables))
	for i, t := range p.tables {
		specs[i] = map[string]any{
			"history_length": t.spec.HistLen,
			"log_size":       t.spec.LogSize,
			"tag_bits":       t.spec.TagBits,
		}
	}
	return map[string]any{
		"name":     "MBPlib BATAGE",
		"log_base": p.logBase,
		"cat_max":  p.catMax,
		"tables":   specs,
	}
}

// Statistics implements bp.StatsProvider.
func (p *Predictor) Statistics() map[string]any {
	return map[string]any{
		"allocations":           p.allocations,
		"throttled_allocations": p.throttled,
		"decays":                p.decays,
		"cat":                   p.cat,
	}
}
