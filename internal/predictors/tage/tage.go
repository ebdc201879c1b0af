// Package tage implements the TAGE predictor of Seznec and Michaud ("A case
// for (partially) tagged geometric history length branch prediction"): a
// bimodal base predictor backed by a set of partially tagged tables indexed
// with geometrically growing global-history lengths. The longest-history
// matching table provides the prediction; allocation on mispredictions and
// usefulness counters manage the tables as a cache of history-dependent
// branch behaviours.
//
// As in the MBPlib examples library, every structural parameter — number of
// tables, per-table history length, tag width, counter width — is
// configurable, and the configuration is reported in the predictor's
// metadata (§V).
package tage

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// TableSpec describes one tagged table.
type TableSpec struct {
	HistLen int // global-history bits folded into the index
	LogSize int // log2 entries
	TagBits int // partial tag width
	CtrBits int // prediction counter width
}

// entry is one tagged-table entry, packed into 4 bytes: a partial tag, a
// signed saturating prediction counter of the table's width and a 2-bit
// usefulness counter. The zero entry is the initial state.
type entry struct {
	tag uint16
	ctr int8
	u   uint8
}

// uMax is the saturation ceiling of the 2-bit usefulness counters.
const uMax = 3

// Base-table counters are 2-bit signed counters.
const baseMin, baseMax = -2, 1

type table struct {
	spec           TableSpec
	entries        []entry
	ctrMin, ctrMax int8 // prediction counter bounds
}

// Predictor is a TAGE branch predictor.
type Predictor struct {
	base     []int8 // 2-bit signed counters
	logBase  int
	tables   []table
	hash     *Hasher
	useAlt   utils.SignedCounter // use-alt-on-newly-allocated policy counter
	rng      *utils.Rand
	ticks    uint64
	resetLog int // u counters age out every 2^resetLog updates
	uPhase   bool

	// Prediction cache, valid for lastIP until the next Track.
	lastIP    uint64
	haveCache bool
	cache     lookup
	candBuf   []int

	allocations uint64 // statistic
	uResets     uint64 // statistic
}

// lookup is the result of scanning the tables for one address. The
// Predictor owns exactly one, the cache, which scan fills in place, so the
// hot path neither allocates nor copies it.
type lookup struct {
	provider int // providing table, -1 for base
	alt      int // alternate table, -1 for base
	idx      []uint32
	tag      []uint16
	baseIdx  uint32
	pred     bool // final prediction
	provPred bool // provider component's prediction
	altPred  bool
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	tables   []TableSpec
	logBase  int
	resetLog int
	seed     uint64
}

// WithTables sets the tagged-table geometry explicitly, one spec per table
// in ascending history order.
func WithTables(specs []TableSpec) Option { return func(c *config) { c.tables = specs } }

// WithGeometric builds n tables with history lengths growing geometrically
// from minHist to maxHist, all with the given logSize, tagBits and 3-bit
// counters.
func WithGeometric(n, minHist, maxHist, logSize, tagBits int) Option {
	return func(c *config) {
		c.tables = GeometricTables(n, minHist, maxHist, logSize, tagBits)
	}
}

// WithLogBase sets the base bimodal table's log size. Default 13.
func WithLogBase(n int) Option { return func(c *config) { c.logBase = n } }

// WithResetLog sets the usefulness aging period to 2^n updates. Default 18.
func WithResetLog(n int) Option { return func(c *config) { c.resetLog = n } }

// WithSeed seeds the allocation randomiser. Default 1.
func WithSeed(s uint64) Option { return func(c *config) { c.seed = s } }

// GeometricTables returns n TableSpecs whose history lengths grow
// geometrically from minHist to maxHist.
func GeometricTables(n, minHist, maxHist, logSize, tagBits int) []TableSpec {
	if n < 1 || minHist < 1 || maxHist < minHist {
		panic(fmt.Sprintf("tage: invalid geometric series n=%d min=%d max=%d", n, minHist, maxHist))
	}
	specs := make([]TableSpec, n)
	for i := range specs {
		l := minHist
		if n > 1 {
			ratio := math.Pow(float64(maxHist)/float64(minHist), float64(i)/float64(n-1))
			l = int(float64(minHist)*ratio + 0.5)
		}
		if i > 0 && l <= specs[i-1].HistLen {
			l = specs[i-1].HistLen + 1
		}
		specs[i] = TableSpec{HistLen: l, LogSize: logSize, TagBits: tagBits, CtrBits: 3}
	}
	return specs
}

// New returns a TAGE predictor. The default configuration is 8 tables with
// history lengths from 4 to 320, 2^10 entries and 11-bit tags each, over a
// 2^13-entry bimodal base.
func New(opts ...Option) *Predictor {
	cfg := config{logBase: 13, resetLog: 18, seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.tables == nil {
		cfg.tables = GeometricTables(8, 4, 320, 10, 11)
	}
	p := &Predictor{
		base:     make([]int8, 1<<cfg.logBase),
		logBase:  cfg.logBase,
		hash:     NewHasher(cfg.tables, cfg.logBase),
		useAlt:   utils.NewSignedCounter(4, 0),
		rng:      utils.NewRand(cfg.seed),
		resetLog: cfg.resetLog,
	}
	for _, ts := range cfg.tables {
		ctrBits := ts.CtrBits
		if ctrBits == 0 {
			ctrBits = 3
		}
		if ctrBits < 1 || ctrBits > 8 {
			panic(fmt.Sprintf("tage: invalid counter width in table spec %+v", ts))
		}
		p.tables = append(p.tables, table{
			spec:    ts,
			entries: make([]entry, 1<<ts.LogSize),
			ctrMin:  int8(-1 << (ctrBits - 1)),
			ctrMax:  int8(1<<(ctrBits-1) - 1),
		})
	}
	p.cache.idx = make([]uint32, len(p.tables))
	p.cache.tag = make([]uint16, len(p.tables))
	p.candBuf = make([]int, 0, len(p.tables))
	return p
}

// sumOrSub moves a saturating counter toward the outcome within [lo, hi],
// with the outcome as data rather than control.
func sumOrSub(c *int8, taken bool, lo, hi int8) {
	v := int32(*c) - 1
	if taken {
		v += 2
	}
	*c = int8(min(max(v, int32(lo)), int32(hi)))
}

// clampInt8 clamps a checkpointed counter value to the counter's range.
func clampInt8(v int64, lo, hi int8) int8 {
	return int8(min(max(v, int64(lo)), int64(hi)))
}

// scan resolves the provider/alternate components for ip into l.
func (p *Predictor) scan(ip uint64, l *lookup) {
	l.baseIdx = p.hash.Hash(ip, l.idx, l.tag)
	tables := p.tables
	idx, tag := l.idx[:len(tables)], l.tag[:len(tables)]
	// The provider is the longest-history matching table, the alternate the
	// next longest: the two highest bits of the match set.
	var hits uint64
	for i := range tables {
		var hit uint64
		if tables[i].entries[idx[i]].tag == tag[i] {
			hit = 1
		}
		hits |= hit << i
	}
	l.provider, l.alt = bits.Len64(hits)-1, -1
	if hits != 0 {
		l.alt = bits.Len64(hits&^(1<<l.provider)) - 1
	}
	basePred := p.base[l.baseIdx] >= 0
	l.altPred = basePred
	if l.alt >= 0 {
		l.altPred = tables[l.alt].entries[idx[l.alt]].ctr >= 0
	}
	if l.provider >= 0 {
		e := &tables[l.provider].entries[idx[l.provider]]
		l.provPred = e.ctr >= 0
		// A weak, never-useful entry is "newly allocated": optionally trust
		// the alternate prediction instead (the use-alt-on-NA policy).
		if newlyAllocated(e) && p.useAlt.Predict() {
			l.pred = l.altPred
		} else {
			l.pred = l.provPred
		}
	} else {
		l.provPred = basePred
		l.pred = basePred
	}
}

// newlyAllocated reports a weak (0 or -1), never-useful entry.
func newlyAllocated(e *entry) bool {
	return (e.ctr == 0 || e.ctr == -1) && e.u == 0
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

// trainLookup applies the full TAGE update for one resolved branch whose
// components were scanned into l. Shared by Train (which goes through the
// lookup cache) and the batch kernel (which scans directly).
func (p *Predictor) trainLookup(l *lookup, taken bool) {
	if l.provider >= 0 {
		t := &p.tables[l.provider]
		e := &t.entries[l.idx[l.provider]]
		// Track whether trusting the alternate on newly allocated entries
		// would have been the better policy.
		if newlyAllocated(e) && l.provPred != l.altPred {
			p.useAlt.SumOrSub(l.altPred == taken)
		}
		sumOrSub(&e.ctr, taken, t.ctrMin, t.ctrMax)
		// Usefulness: the provider proved useful when it disagreed with the
		// alternate and was right.
		if l.provPred != l.altPred {
			if l.provPred == taken {
				e.u = min(e.u+1, uMax)
			} else if e.u > 0 {
				e.u--
			}
		}
		// The base keeps learning when it served as the alternate.
		if l.alt == -1 {
			sumOrSub(&p.base[l.baseIdx], taken, baseMin, baseMax)
		}
	} else {
		sumOrSub(&p.base[l.baseIdx], taken, baseMin, baseMax)
	}

	// Allocate a longer-history entry on a misprediction (§: TAGE learns new
	// history correlations by promotion into longer tables).
	if l.pred != taken && l.provider < len(p.tables)-1 {
		p.allocate(l, taken)
	}

	// Periodic aging of usefulness counters: alternately clear the high and
	// low bit so stale entries become replaceable.
	p.ticks++
	if p.ticks >= 1<<p.resetLog {
		p.ticks = 0
		p.uResets++
		clearBit := uint8(1)
		if p.uPhase {
			clearBit = 2
		}
		for ti := range p.tables {
			entries := p.tables[ti].entries
			for ei := range entries {
				entries[ei].u &^= clearBit
			}
		}
		p.uPhase = !p.uPhase
	}
}

// allocate claims an entry in a table with longer history than the
// provider, preferring (with probability 2/3) the shortest candidate so
// histories grow only as needed.
func (p *Predictor) allocate(l *lookup, taken bool) {
	start := l.provider + 1
	candidates := p.candBuf[:0]
	for i := start; i < len(p.tables); i++ {
		if p.tables[i].entries[l.idx[i]].u == 0 {
			candidates = append(candidates, i)
		}
	}
	p.candBuf = candidates[:0]
	if len(candidates) == 0 {
		// Nothing replaceable: decay instead, so space appears eventually.
		for i := start; i < len(p.tables); i++ {
			if e := &p.tables[i].entries[l.idx[i]]; e.u > 0 {
				e.u--
			}
		}
		return
	}
	pick := candidates[0]
	if len(candidates) > 1 && p.rng.Intn(3) == 0 {
		pick = candidates[1+p.rng.Intn(len(candidates)-1)]
	}
	t := &p.tables[pick]
	e := &t.entries[l.idx[pick]]
	e.tag = l.tag[pick]
	e.ctr = 0
	if !taken {
		e.ctr = max(-1, t.ctrMin)
	}
	e.u = 0
	p.allocations++
}

// Track implements bp.Predictor: push the outcome through the global
// history and every folded history.
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
		"name":     "MBPlib TAGE",
		"log_base": p.logBase,
		"tables":   specs,
	}
}

// Statistics implements bp.StatsProvider.
func (p *Predictor) Statistics() map[string]any {
	return map[string]any{
		"allocations": p.allocations,
		"u_resets":    p.uResets,
	}
}

// ckptVersion is the checkpoint format version of this predictor.
const ckptVersion = 1

// Checkpoint implements bp.Checkpointer. The PRNG state, tick counter and
// statistics are included so that a restored instance makes the same
// allocation decisions and reports the same Statistics() as the original.
// The prediction cache is derived state (recomputed by the next cached()
// call from unchanged tables) and is deliberately not serialized.
func (p *Predictor) Checkpoint(w io.Writer) error {
	cw := bp.NewCkptWriter(w)
	cw.Header("tage", ckptVersion)
	cw.Int(p.logBase)
	cw.Int(p.resetLog)
	cw.Int(len(p.tables))
	for i := range p.tables {
		ts := p.tables[i].spec
		cw.Int(ts.HistLen)
		cw.Int(ts.LogSize)
		cw.Int(ts.TagBits)
		cw.Int(ts.CtrBits)
	}
	for _, c := range p.base {
		cw.I64(int64(c))
	}
	for i := range p.tables {
		for _, e := range p.tables[i].entries {
			cw.U64(uint64(e.tag))
			cw.I64(int64(e.ctr))
			cw.U64(uint64(e.u))
		}
		for _, v := range p.hash.TableFolds(i) {
			cw.U64(v)
		}
	}
	cw.U64s(p.hash.History().Words())
	cw.I64(int64(p.useAlt.Get()))
	cw.U64(p.rng.State())
	cw.U64(p.ticks)
	cw.Bool(p.uPhase)
	cw.U64(p.allocations)
	cw.U64(p.uResets)
	return cw.Err()
}

// Restore implements bp.Checkpointer.
func (p *Predictor) Restore(r io.Reader) error {
	cr := bp.NewCkptReader(r)
	if v := cr.Header("tage"); cr.Err() == nil && v != ckptVersion {
		cr.Corrupt("unknown tage checkpoint version %d", v)
	}
	cr.ExpectInt("log_base", p.logBase)
	cr.ExpectInt("reset_log", p.resetLog)
	cr.ExpectInt("table count", len(p.tables))
	for i := range p.tables {
		ts := p.tables[i].spec
		cr.ExpectInt(fmt.Sprintf("table %d history length", i), ts.HistLen)
		cr.ExpectInt(fmt.Sprintf("table %d log size", i), ts.LogSize)
		cr.ExpectInt(fmt.Sprintf("table %d tag bits", i), ts.TagBits)
		cr.ExpectInt(fmt.Sprintf("table %d counter bits", i), ts.CtrBits)
	}
	if err := cr.Err(); err != nil {
		return err
	}
	for i := range p.base {
		p.base[i] = clampInt8(cr.I64(), baseMin, baseMax)
	}
	for i := range p.tables {
		t := &p.tables[i]
		for ei := range t.entries {
			e := &t.entries[ei]
			e.tag = uint16(cr.U64())
			e.ctr = clampInt8(cr.I64(), t.ctrMin, t.ctrMax)
			e.u = uint8(min(cr.U64(), uMax))
		}
		p.hash.SetTableFolds(i, [3]uint64{cr.U64(), cr.U64(), cr.U64()})
	}
	hist := p.hash.History()
	words := cr.U64s()
	if wantWords := (hist.Len() + 63) / 64; len(words) != wantWords && cr.Err() == nil {
		cr.Corrupt("global history of %d words, restoring instance has %d", len(words), wantWords)
	}
	useAlt := int(cr.I64())
	rngState := cr.U64()
	ticks := cr.U64()
	uPhase := cr.Bool()
	allocations := cr.U64()
	uResets := cr.U64()
	if err := cr.Err(); err != nil {
		return err
	}
	hist.SetWords(words)
	p.useAlt.Set(useAlt)
	p.rng.SetState(rngState)
	p.ticks = ticks
	p.uPhase = uPhase
	p.allocations = allocations
	p.uResets = uResets
	p.haveCache = false
	return nil
}
