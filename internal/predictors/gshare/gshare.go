// Package gshare implements McFarling's GShare predictor: a table of
// saturating counters indexed by the XOR of the branch address with the
// global branch history. It is the direct Go port of Listing 2 in the
// MBPlib paper — the showcase of how small a predictor becomes when built
// from the utilities library.
package gshare

import (
	"fmt"
	"io"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Predictor is a GShare branch predictor. The core of the implementation
// is, as in Listing 2, a hash, a counter table and a history register.
type Predictor struct {
	table   utils.CounterTable
	ghist   uint64
	hmask   uint64
	histLen int
	logSize int
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	histLen int
	logSize int
}

// WithHistoryLength sets the global history length H. Default 15.
func WithHistoryLength(h int) Option { return func(c *config) { c.histLen = h } }

// WithLogSize sets the log2 of the counter-table size T. Default 17.
// The 64 KiB configuration of Listing 1 uses T = 18 (2^18 2-bit counters).
func WithLogSize(t int) Option { return func(c *config) { c.logSize = t } }

// New returns a GShare predictor.
func New(opts ...Option) *Predictor {
	cfg := config{histLen: 15, logSize: 17}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.histLen < 1 || cfg.histLen > 64 {
		panic(fmt.Sprintf("gshare: invalid history length %d", cfg.histLen))
	}
	if cfg.logSize < 1 || cfg.logSize > 30 {
		panic(fmt.Sprintf("gshare: invalid log table size %d", cfg.logSize))
	}
	p := &Predictor{
		table:   utils.NewCounterTable(1<<cfg.logSize, 2),
		histLen: cfg.histLen,
		logSize: cfg.logSize,
	}
	if cfg.histLen == 64 {
		p.hmask = ^uint64(0)
	} else {
		p.hmask = 1<<cfg.histLen - 1
	}
	return p
}

// hash mirrors Listing 2: XorFold(ip ^ ghist, T).
func (p *Predictor) hash(ip uint64) uint64 {
	return utils.XorFold(ip^p.ghist, p.logSize)
}

// Predict implements bp.Predictor.
func (p *Predictor) Predict(ip uint64) bool {
	return p.table.Predict(p.hash(ip))
}

// Train implements bp.Predictor.
func (p *Predictor) Train(b bp.Branch) {
	p.table.Update(p.hash(b.IP), b.Taken)
}

// Track implements bp.Predictor: shift the outcome into the global history.
func (p *Predictor) Track(b bp.Branch) {
	p.ghist <<= 1
	if b.Taken {
		p.ghist |= 1
	}
	p.ghist &= p.hmask
}

// Metadata implements bp.MetadataProvider, mirroring the predictor section
// of Listing 1.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":           "MBPlib GShare",
		"history_length": p.histLen,
		"log_table_size": p.logSize,
	}
}

// ckptVersion is the checkpoint format version of this predictor.
const ckptVersion = 1

// Checkpoint implements bp.Checkpointer.
func (p *Predictor) Checkpoint(w io.Writer) error {
	cw := bp.NewCkptWriter(w)
	cw.Header("gshare", ckptVersion)
	cw.Int(p.histLen)
	cw.Int(p.logSize)
	cw.U64(p.ghist)
	for i := range p.table.Len() {
		cw.I64(int64(p.table.Get(uint64(i))))
	}
	return cw.Err()
}

// Restore implements bp.Checkpointer.
func (p *Predictor) Restore(r io.Reader) error {
	cr := bp.NewCkptReader(r)
	if v := cr.Header("gshare"); cr.Err() == nil && v != ckptVersion {
		cr.Corrupt("unknown gshare checkpoint version %d", v)
	}
	cr.ExpectInt("history_length", p.histLen)
	cr.ExpectInt("log_table_size", p.logSize)
	p.ghist = cr.U64() & p.hmask
	for i := range p.table.Len() {
		p.table.Set(uint64(i), int(cr.I64()))
	}
	return cr.Err()
}
