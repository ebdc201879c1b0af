// Package registry constructs predictors from textual descriptions such as
// "gshare:h=25,t=18" or "tournament:bp0=bimodal,bp1=gshare", so command-line
// tools and sweep harnesses can select any predictor of the examples
// library (Table II) by name.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/agree"
	"mbplib/internal/predictors/alpha"
	"mbplib/internal/predictors/batage"
	"mbplib/internal/predictors/bimodal"
	"mbplib/internal/predictors/filter"
	"mbplib/internal/predictors/gshare"
	"mbplib/internal/predictors/gskew"
	"mbplib/internal/predictors/loop"
	"mbplib/internal/predictors/ogehl"
	"mbplib/internal/predictors/perceptron"
	"mbplib/internal/predictors/statics"
	"mbplib/internal/predictors/tage"
	"mbplib/internal/predictors/tournament"
	"mbplib/internal/predictors/twolevel"
	"mbplib/internal/predictors/yags"
	"mbplib/internal/utils"
)

// params is a parsed key=value option set that records which keys were read,
// so unknown options are reported instead of silently ignored, and the
// first invalid value, so a builder reads all its options and checks once.
type params struct {
	vals map[string]string
	used map[string]bool
	err  error
}

func parseParams(s string) (*params, error) {
	p := &params{vals: map[string]string{}, used: map[string]bool{}}
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed option %q (want key=value)", kv)
		}
		p.vals[k] = v
	}
	return p, nil
}

func (p *params) str(key, def string) string {
	if v, ok := p.vals[key]; ok {
		p.used[key] = true
		return v
	}
	return def
}

// intIn returns the integer option key (def when absent), recording an
// error unless it lies in [lo, hi]. Every numeric option has a range: the
// predictor constructors panic outside theirs, and a spec arrives from a
// command line or a daemon submission, where a bad value must be an error.
func (p *params) intIn(key string, def, lo, hi int) int {
	v, ok := p.vals[key]
	if !ok {
		return def
	}
	p.used[key] = true
	n, err := strconv.Atoi(v)
	switch {
	case p.err != nil:
	case err != nil:
		p.err = fmt.Errorf("option %s: %v", key, err)
	case n < lo || n > hi:
		p.err = fmt.Errorf("option %s=%d out of range [%d, %d]", key, n, lo, hi)
	}
	return n
}

// check records an error for a constraint between options unless ok.
func (p *params) check(ok bool, format string, args ...any) {
	if !ok && p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

func (p *params) unknown() []string {
	var extra []string
	for k := range p.vals {
		if !p.used[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return extra
}

// Names lists the available predictor names, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

type builder func(*params) (bp.Predictor, error)

// builders is populated in init: buildTournament constructs its components
// through New, so a composite literal would form an initialization cycle.
var builders map[string]builder

func init() {
	builders = map[string]builder{
		"always-taken":     func(*params) (bp.Predictor, error) { return statics.NewTaken(), nil },
		"always-not-taken": func(*params) (bp.Predictor, error) { return statics.NewNotTaken(), nil },
		"bimodal":          buildBimodal,
		"gshare":           buildGShare,
		"twolevel":         buildTwoLevel,
		"tournament":       buildTournament,
		"gskew":            buildGskew,
		"perceptron":       buildPerceptron,
		"loop":             buildLoop,
		"tage":             buildTAGE,
		"batage":           buildBATAGE,
		"ogehl":            buildOGEHL,
		"yags":             buildYAGS,
		"agree":            buildAgree,
		"alpha":            buildAlpha,
		"filter":           buildFilter,
	}
}

// New builds the predictor described by spec, which is a name optionally
// followed by ":" and comma-separated key=value options. Run `mbpsim -list`
// for the catalogue.
func New(spec string) (bp.Predictor, error) {
	name, opts, _ := strings.Cut(spec, ":")
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown predictor %q (have %s)", name, strings.Join(Names(), ", "))
	}
	p, err := parseParams(opts)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %v", name, err)
	}
	pred, err := b(p)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %v", name, err)
	}
	if extra := p.unknown(); len(extra) > 0 {
		return nil, fmt.Errorf("registry: %s: unknown options %v", name, extra)
	}
	return pred, nil
}

func buildBimodal(p *params) (bp.Predictor, error) {
	logSize := p.intIn("t", 14, 1, 30)
	bits := p.intIn("bits", 2, 1, utils.MaxCounterWidth)
	if p.err != nil {
		return nil, p.err
	}
	return bimodal.New(bimodal.WithLogSize(logSize), bimodal.WithCounterBits(bits)), nil
}

func buildGShare(p *params) (bp.Predictor, error) {
	h, t := p.intIn("h", 15, 1, 64), p.intIn("t", 17, 1, 30)
	if p.err != nil {
		return nil, p.err
	}
	return gshare.New(gshare.WithHistoryLength(h), gshare.WithLogSize(t)), nil
}

func buildTwoLevel(p *params) (bp.Predictor, error) {
	variant := p.str("variant", "GAs")
	if len(variant) != 3 || variant[1] != 'A' {
		return nil, fmt.Errorf("bad two-level variant %q (want e.g. GAg, PAs)", variant)
	}
	level := func(c byte) (twolevel.Level, error) {
		switch c {
		case 'G', 'g':
			return twolevel.Global, nil
		case 'S', 's':
			return twolevel.PerSet, nil
		case 'P', 'p':
			return twolevel.PerAddress, nil
		}
		return 0, fmt.Errorf("bad two-level level %q", string(c))
	}
	first, err := level(variant[0])
	if err != nil {
		return nil, err
	}
	second, err := level(variant[2])
	if err != nil {
		return nil, err
	}
	// 0 selects the variant's default number of registers or tables.
	cfg := twolevel.Config{
		First: first, Second: second,
		HistLen: p.intIn("h", 12, 1, 24),
		LogBHRs: p.intIn("bhrs", 0, 0, 20),
		LogPHTs: p.intIn("phts", 0, 0, 16),
	}
	if p.err != nil {
		return nil, p.err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return twolevel.New(cfg), nil
}

func buildTournament(p *params) (bp.Predictor, error) {
	meta, err := New(p.str("meta", "bimodal:t=13"))
	if err != nil {
		return nil, fmt.Errorf("meta: %v", err)
	}
	bp0, err := New(p.str("bp0", "bimodal"))
	if err != nil {
		return nil, fmt.Errorf("bp0: %v", err)
	}
	bp1, err := New(p.str("bp1", "gshare"))
	if err != nil {
		return nil, fmt.Errorf("bp1: %v", err)
	}
	return tournament.New(meta, bp0, bp1), nil
}

func buildGskew(p *params) (bp.Predictor, error) {
	t := p.intIn("t", 15, 1, 28)
	h0, h1 := p.intIn("h0", 9, 1, 63), p.intIn("h1", 18, 1, 63)
	p.check(h0 <= h1, "option h0=%d exceeds h1=%d", h0, h1)
	if p.err != nil {
		return nil, p.err
	}
	return gskew.New(gskew.WithLogSize(t), gskew.WithHistoryLengths(h0, h1)), nil
}

func buildPerceptron(p *params) (bp.Predictor, error) {
	t := p.intIn("t", 13, 1, 26)
	if p.err != nil {
		return nil, p.err
	}
	return perceptron.New(perceptron.WithLogSize(t)), nil
}

func buildLoop(p *params) (bp.Predictor, error) {
	t := p.intIn("t", 6, 1, 16)
	if p.err != nil {
		return nil, p.err
	}
	return loop.New(loop.WithLogSize(t)), nil
}

// maxGeometricHist bounds the longest TAGE-class history, which sizes the
// global history register and its folds.
const maxGeometricHist = 1 << 16

func tageGeometry(p *params) (n, minH, maxH, logSize, tagBits int, err error) {
	n = p.intIn("tables", 8, 1, 64)
	minH = p.intIn("minhist", 4, 1, maxGeometricHist)
	maxH = p.intIn("maxhist", 320, 1, maxGeometricHist)
	logSize = p.intIn("t", 10, 1, 24)
	tagBits = p.intIn("tag", 11, 1, 16)
	p.check(minH <= maxH, "option minhist=%d exceeds maxhist=%d", minH, maxH)
	return n, minH, maxH, logSize, tagBits, p.err
}

func buildTAGE(p *params) (bp.Predictor, error) {
	n, minH, maxH, logSize, tagBits, err := tageGeometry(p)
	if err != nil {
		return nil, err
	}
	return tage.New(tage.WithGeometric(n, minH, maxH, logSize, tagBits)), nil
}

func buildBATAGE(p *params) (bp.Predictor, error) {
	n, minH, maxH, logSize, tagBits, err := tageGeometry(p)
	if err != nil {
		return nil, err
	}
	return batage.New(batage.WithGeometric(n, minH, maxH, logSize, tagBits)), nil
}

func buildOGEHL(p *params) (bp.Predictor, error) {
	t, bits := p.intIn("t", 11, 1, 26), p.intIn("bits", 5, 2, utils.MaxCounterWidth)
	if p.err != nil {
		return nil, p.err
	}
	return ogehl.New(ogehl.WithLogSize(t), ogehl.WithCounterBits(bits)), nil
}

func buildYAGS(p *params) (bp.Predictor, error) {
	choice, cache := p.intIn("choice", 14, 1, 26), p.intIn("cache", 12, 1, 26)
	h := p.intIn("h", 12, 1, 63)
	if p.err != nil {
		return nil, p.err
	}
	return yags.New(yags.WithLogChoice(choice), yags.WithLogCache(cache), yags.WithHistoryLength(h)), nil
}

func buildAgree(p *params) (bp.Predictor, error) {
	t, h := p.intIn("t", 15, 1, 26), p.intIn("h", 14, 1, 63)
	if p.err != nil {
		return nil, p.err
	}
	return agree.New(agree.WithLogAgree(t), agree.WithHistoryLength(h)), nil
}

func buildAlpha(p *params) (bp.Predictor, error) {
	local, global := p.intIn("local", 10, 1, 20), p.intIn("global", 12, 1, 26)
	if p.err != nil {
		return nil, p.err
	}
	return alpha.New(alpha.WithLogLocal(local), alpha.WithLogGlobal(global)), nil
}

func buildFilter(p *params) (bp.Predictor, error) {
	inner, err := New(p.str("inner", "gshare"))
	if err != nil {
		return nil, fmt.Errorf("inner: %v", err)
	}
	threshold := p.intIn("threshold", 16, 1, 255)
	if p.err != nil {
		return nil, p.err
	}
	return filter.New(inner, filter.WithThreshold(threshold)), nil
}
