// Package perceptron implements the hashed perceptron predictor of Tarjan
// and Skadron ("Merging path and gshare indexing in perceptron branch
// prediction"). A set of weight tables, each indexed by a hash of the
// branch address with a geometrically growing slice of global and path
// history, contributes signed weights whose sum decides the prediction.
// Training is perceptron-style: only on a misprediction or when the sum's
// magnitude falls below an adaptively trained threshold.
package perceptron

import (
	"fmt"
	"io"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Predictor is a hashed perceptron branch predictor.
type Predictor struct {
	tables  []utils.CounterTable
	lengths []int
	logSize int
	wBits   int

	// folds holds the global history and, per table, its history length
	// folded into logSize bits.
	folds *utils.FoldBank
	phist *utils.PathHistory

	// The per-table constants of the index hash (see indices): the table
	// salt folded into logSize bits, and an all-ones mask for the tables
	// that mix in path history.
	salt     []uint64
	pathMask []uint64

	theta int
	tc    utils.SignedCounter // adaptive threshold trainer

	// Cached sum for the last predicted IP, reused by Train.
	lastIP  uint64
	lastSum int
	haveSum bool

	// kidx is the per-table index scratch: the indices computed for the
	// weight sum are reused by the update instead of being re-hashed. Not
	// part of the serialized state.
	kidx []uint32

	trainings uint64 // statistic: below-threshold updates
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	lengths []int
	logSize int
	wBits   int
	theta   int
}

// WithHistoryLengths sets the per-table history lengths; the first entry is
// conventionally 0 (bias table). Default {0, 3, 6, 12, 24, 48, 96, 128}.
func WithHistoryLengths(l []int) Option { return func(c *config) { c.lengths = l } }

// WithLogSize sets the log2 entries per table. Default 13.
func WithLogSize(n int) Option { return func(c *config) { c.logSize = n } }

// WithWeightBits sets the weight counter width. Default 8.
func WithWeightBits(n int) Option { return func(c *config) { c.wBits = n } }

// New returns a hashed perceptron predictor.
func New(opts ...Option) *Predictor {
	cfg := config{
		lengths: []int{0, 3, 6, 12, 24, 48, 96, 128},
		logSize: 13,
		wBits:   8,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.lengths) < 2 {
		panic("perceptron: need at least two tables")
	}
	if cfg.logSize < 1 || cfg.logSize > 26 {
		panic(fmt.Sprintf("perceptron: invalid log table size %d", cfg.logSize))
	}
	for i, l := range cfg.lengths {
		if l < 0 || (i > 0 && l < cfg.lengths[i-1]) {
			panic(fmt.Sprintf("perceptron: history lengths must be non-negative and ascending: %v", cfg.lengths))
		}
	}
	if cfg.theta == 0 {
		// The classical perceptron threshold heuristic, scaled to the
		// number of tables.
		cfg.theta = int(2.14*float64(len(cfg.lengths))) + 10
	}
	p := &Predictor{
		lengths: cfg.lengths,
		logSize: cfg.logSize,
		wBits:   cfg.wBits,
		phist:   utils.NewPathHistory(8, 8),
		theta:   cfg.theta,
		tc:      utils.NewSignedCounter(7, 0),
	}
	folds := make([]utils.Fold, len(cfg.lengths))
	for t, l := range cfg.lengths {
		p.tables = append(p.tables, utils.NewCounterTable(1<<cfg.logSize, cfg.wBits))
		folds[t] = utils.Fold{Length: l, Width: cfg.logSize}
		p.salt = append(p.salt, utils.XorFold(uint64(t)*0x9e3779b97f4a7c15, cfg.logSize))
		mask := uint64(0)
		if l >= 8 {
			mask = ^mask
		}
		p.pathMask = append(p.pathMask, mask)
	}
	p.folds = utils.NewFoldBank(folds)
	p.kidx = make([]uint32, len(p.tables))
	return p
}

// indices writes every table's index for ip into idx. Table t's index is
//
//	XorFold(ip ^ F(h,t) ^ path<<1 ^ t*0x9e3779b97f4a7c15, logSize)
//
// where F(h,t) is table t's folded history and path, the packed path
// history, is mixed in only for tables of history length 8 or more (the
// paper's merged path/gshare indexing). XorFold is linear over XOR, so the
// address and path parts fold once per branch, the folded history already
// fits logSize bits, and the salt folds once at construction.
func (p *Predictor) indices(ip uint64, idx []uint32) {
	a := utils.XorFold(ip, p.logSize)
	path := utils.XorFold(p.phist.Packed()<<1, p.logSize)
	f := p.folds.Values()
	salt, pathMask := p.salt, p.pathMask
	idx = idx[:len(f)]
	for t := range idx {
		idx[t] = uint32(a ^ path&pathMask[t] ^ f[t] ^ salt[t])
	}
}

// sum computes the table indices for ip into kidx and returns the weight
// sum.
func (p *Predictor) sum(ip uint64) int {
	kidx := p.kidx
	p.indices(ip, kidx)
	s := 0
	for t, i := range kidx {
		s += p.tables[t].Get(uint64(i))
	}
	return s
}

// Predict implements bp.Predictor.
//
//mbpvet:impure caches the perceptron sum for Train's threshold comparison; the sum is recomputed if Train sees another ip, so predictions are unaffected
func (p *Predictor) Predict(ip uint64) bool {
	s := p.sum(ip)
	p.lastIP, p.lastSum, p.haveSum = ip, s, true
	return s >= 0
}

// Train implements bp.Predictor: perceptron update with adaptive threshold.
func (p *Predictor) Train(b bp.Branch) {
	s := p.lastSum
	if !p.haveSum || p.lastIP != b.IP {
		s = p.sum(b.IP)
	} else {
		p.indices(b.IP, p.kidx)
	}
	p.update(s, b.Taken)
}

// update trains the weights at kidx, which must hold the indices of the
// branch whose weight sum is s, toward the outcome, and adapts the
// threshold. Shared by Train and the batch kernel.
func (p *Predictor) update(s int, taken bool) {
	pred := s >= 0
	mag := s
	if mag < 0 {
		mag = -mag
	}
	mispredicted := pred != taken
	if mispredicted || mag <= p.theta {
		p.trainings++
		// Update is branch-free on the outcome, so the row update carries
		// no data-dependent branches.
		for t, i := range p.kidx {
			p.tables[t].Update(uint64(i), taken)
		}
	}
	// Adaptive threshold (O-GEHL style): mispredictions push theta up,
	// low-confidence correct predictions pull it down.
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
}

// Track implements bp.Predictor: update global and path histories.
func (p *Predictor) Track(b bp.Branch) {
	p.folds.Push(b.Taken)
	p.phist.Push(b.IP >> 2)
	p.haveSum = false
}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":            "MBPlib Hashed Perceptron",
		"history_lengths": append([]int(nil), p.lengths...),
		"log_table_size":  p.logSize,
		"weight_bits":     p.wBits,
	}
}

// Statistics implements bp.StatsProvider.
func (p *Predictor) Statistics() map[string]any {
	return map[string]any{
		"threshold":        p.theta,
		"weight_trainings": p.trainings,
	}
}

// ckptVersion is the checkpoint format version of this predictor.
const ckptVersion = 1

// Checkpoint implements bp.Checkpointer. The prediction cache and the
// statistics counters are part of the state: a restored instance reproduces
// not only predictions but the exact Statistics() output.
func (p *Predictor) Checkpoint(w io.Writer) error {
	cw := bp.NewCkptWriter(w)
	cw.Header("perceptron", ckptVersion)
	cw.Int(len(p.lengths))
	for _, l := range p.lengths {
		cw.Int(l)
	}
	cw.Int(p.logSize)
	cw.Int(p.wBits)
	for t := range p.tables {
		for i := range p.tables[t].Len() {
			cw.I64(int64(p.tables[t].Get(uint64(i))))
		}
	}
	for t := range p.tables {
		cw.U64(p.folds.Value(t))
	}
	cw.U64s(p.folds.Words())
	buf, head, packed := p.phist.State()
	cw.Int(head)
	cw.U64(packed)
	cw.Int(len(buf))
	for _, v := range buf {
		cw.U64(uint64(v))
	}
	cw.Int(p.theta)
	cw.I64(int64(p.tc.Get()))
	cw.U64(p.lastIP)
	cw.I64(int64(p.lastSum))
	cw.Bool(p.haveSum)
	cw.U64(p.trainings)
	return cw.Err()
}

// Restore implements bp.Checkpointer.
func (p *Predictor) Restore(r io.Reader) error {
	cr := bp.NewCkptReader(r)
	if v := cr.Header("perceptron"); cr.Err() == nil && v != ckptVersion {
		cr.Corrupt("unknown perceptron checkpoint version %d", v)
	}
	cr.ExpectInt("table count", len(p.lengths))
	for i, l := range p.lengths {
		cr.ExpectInt(fmt.Sprintf("history length %d", i), l)
	}
	cr.ExpectInt("log_table_size", p.logSize)
	cr.ExpectInt("weight_bits", p.wBits)
	if err := cr.Err(); err != nil {
		return err
	}
	for t := range p.tables {
		for i := range p.tables[t].Len() {
			p.tables[t].Set(uint64(i), int(cr.I64()))
		}
	}
	for t := range p.tables {
		p.folds.SetValue(t, cr.U64())
	}
	words := cr.U64s()
	head := cr.Int()
	packed := cr.U64()
	n := cr.Int()
	if n != 8 { // NewPathHistory(8, 8) above
		cr.Corrupt("path history holds %d entries, restoring instance has 8", n)
	}
	buf := make([]uint16, 8)
	for i := range buf {
		buf[i] = uint16(cr.U64())
	}
	theta := cr.Int()
	tc := int(cr.I64())
	lastIP := cr.U64()
	lastSum := int(cr.I64())
	haveSum := cr.Bool()
	trainings := cr.U64()
	if wantWords := (p.folds.Len() + 63) / 64; len(words) != wantWords {
		cr.Corrupt("global history of %d words, restoring instance has %d", len(words), wantWords)
	}
	if head < 0 || head >= 8 {
		cr.Corrupt("path history head %d out of range", head)
	}
	if err := cr.Err(); err != nil {
		return err
	}
	p.folds.SetWords(words)
	p.phist.SetState(buf, head, packed)
	p.theta = theta
	p.tc.Set(tc)
	p.lastIP, p.lastSum, p.haveSum = lastIP, lastSum, haveSum
	p.trainings = trainings
	return nil
}
