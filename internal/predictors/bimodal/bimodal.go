// Package bimodal implements the bimodal predictor of Lee and Smith: a
// single table of saturating counters indexed by the branch address. It is
// the simplest dynamic predictor in the examples library and, as in the
// paper's evaluation (§VII-A), the one whose simulation time is dominated
// by the simulator rather than the predictor — which makes it the probe for
// raw simulator speed in Table III.
package bimodal

import (
	"fmt"
	"io"

	"mbplib/internal/bp"
	"mbplib/internal/utils"
)

// Predictor is a bimodal branch predictor.
type Predictor struct {
	table       utils.CounterTable
	logSize     int
	counterBits int
}

// Option configures the predictor.
type Option func(*config)

type config struct {
	logSize     int
	counterBits int
}

// WithLogSize sets the log2 of the table size. Default 14 (16 Ki entries;
// with 2-bit counters, a 4 KiB budget).
func WithLogSize(n int) Option { return func(c *config) { c.logSize = n } }

// WithCounterBits sets the counter width. Default 2.
func WithCounterBits(n int) Option { return func(c *config) { c.counterBits = n } }

// New returns a bimodal predictor.
func New(opts ...Option) *Predictor {
	cfg := config{logSize: 14, counterBits: 2}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.logSize < 1 || cfg.logSize > 30 {
		panic(fmt.Sprintf("bimodal: invalid log table size %d", cfg.logSize))
	}
	return &Predictor{
		table:       utils.NewCounterTable(1<<cfg.logSize, cfg.counterBits),
		logSize:     cfg.logSize,
		counterBits: cfg.counterBits,
	}
}

func (p *Predictor) index(ip uint64) uint64 {
	return utils.XorFold(ip>>2, p.logSize)
}

// Predict implements bp.Predictor.
func (p *Predictor) Predict(ip uint64) bool {
	return p.table.Predict(p.index(ip))
}

// Train implements bp.Predictor.
func (p *Predictor) Train(b bp.Branch) {
	p.table.Update(p.index(b.IP), b.Taken)
}

// Track implements bp.Predictor. Bimodal keeps no scenario state.
func (p *Predictor) Track(bp.Branch) {}

// Metadata implements bp.MetadataProvider.
func (p *Predictor) Metadata() map[string]any {
	return map[string]any{
		"name":           "MBPlib Bimodal",
		"log_table_size": p.logSize,
		"counter_bits":   p.counterBits,
	}
}

// ckptVersion is the checkpoint format version of this predictor.
const ckptVersion = 1

// Checkpoint implements bp.Checkpointer.
func (p *Predictor) Checkpoint(w io.Writer) error {
	cw := bp.NewCkptWriter(w)
	cw.Header("bimodal", ckptVersion)
	cw.Int(p.logSize)
	cw.Int(p.counterBits)
	for i := range p.table.Len() {
		cw.I64(int64(p.table.Get(uint64(i))))
	}
	return cw.Err()
}

// Restore implements bp.Checkpointer.
func (p *Predictor) Restore(r io.Reader) error {
	cr := bp.NewCkptReader(r)
	if v := cr.Header("bimodal"); cr.Err() == nil && v != ckptVersion {
		cr.Corrupt("unknown bimodal checkpoint version %d", v)
	}
	cr.ExpectInt("log_table_size", p.logSize)
	cr.ExpectInt("counter_bits", p.counterBits)
	for i := range p.table.Len() {
		p.table.Set(uint64(i), int(cr.I64()))
	}
	return cr.Err()
}
