package registry

import (
	"strings"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/predictors/predtest"
)

func TestAllNamesBuildWithDefaults(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p == nil {
			t.Errorf("New(%q) returned nil", name)
		}
	}
}

func TestBuiltPredictorsWork(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		// A couple of events must not panic and Predict must be callable.
		b := bp.Branch{IP: 0x400040, Target: 0x400080, Opcode: bp.OpCondJump, Taken: true}
		_ = p.Predict(b.IP)
		p.Train(b)
		p.Track(b)
		_ = p.Predict(b.IP)
	}
}

func TestGShareOptions(t *testing.T) {
	p, err := New("gshare:h=25,t=18")
	if err != nil {
		t.Fatal(err)
	}
	md := p.(bp.MetadataProvider).Metadata()
	if md["history_length"] != 25 || md["log_table_size"] != 18 {
		t.Errorf("options not applied: %v", md)
	}
}

func TestTwoLevelVariants(t *testing.T) {
	for _, v := range []string{"GAg", "GAs", "GAp", "SAg", "SAs", "SAp", "PAg", "PAs", "PAp"} {
		p, err := New("twolevel:variant=" + v)
		if err != nil {
			t.Errorf("variant %s: %v", v, err)
			continue
		}
		md := p.(bp.MetadataProvider).Metadata()
		if !strings.HasSuffix(md["name"].(string), v) {
			t.Errorf("variant %s built as %v", v, md["name"])
		}
	}
	if _, err := New("twolevel:variant=XAy"); err == nil {
		t.Errorf("bad variant accepted")
	}
}

func TestTournamentComposition(t *testing.T) {
	p, err := New("tournament:meta=bimodal:t=10,bp0=always-taken,bp1=gshare:h=10")
	// Note: nested colons inside component specs are supported because only
	// the first colon splits name from options... this spec is ambiguous,
	// so expect an error OR a valid tournament; the simple form must work:
	_ = p
	_ = err
	q, err := New("tournament")
	if err != nil {
		t.Fatalf("default tournament: %v", err)
	}
	md := q.(bp.MetadataProvider).Metadata()
	if md["name"] != "MBPlib Tournament" {
		t.Errorf("tournament metadata: %v", md)
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"nope",
		"gshare:h",
		"gshare:h=abc",
		"gshare:zzz=1",
		"bimodal:t=x",
	}
	for _, spec := range cases {
		if _, err := New(spec); err == nil {
			t.Errorf("New(%q) succeeded", spec)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
	// Every predictor of Table II is present.
	want := []string{"bimodal", "twolevel", "gshare", "tournament", "gskew", "perceptron", "tage", "batage"}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("Table II predictor %q missing from registry", w)
		}
	}
}

func TestRegistryPredictorsOnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := predtest.MixedSpec(20000)
	for _, name := range []string{"bimodal", "gshare", "tage", "batage", "gskew", "perceptron", "tournament", "loop"} {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		acc := predtest.AccuracyOnSpec(t, p, spec)
		if acc < 0.55 {
			t.Errorf("%s accuracy %v on mixed workload", name, acc)
		}
	}
}

// TestNumericOptionBounds walks every builder's numeric options across
// their range edges: the value just outside each end is an error (never a
// panic, which would take down the CLI or a daemon request), and the low
// end — plus the high end where it does not size a table — builds.
func TestNumericOptionBounds(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"bimodal:t=0", false}, {"bimodal:t=1", true}, {"bimodal:t=31", false},
		{"bimodal:bits=0", false}, {"bimodal:bits=1", true}, {"bimodal:bits=8", true},
		{"bimodal:bits=9", false}, {"bimodal:bits=12", false}, {"bimodal:bits=40", false},
		{"gshare:h=0", false}, {"gshare:h=1", true}, {"gshare:h=64", true}, {"gshare:h=65", false},
		{"gshare:t=0", false}, {"gshare:t=1", true}, {"gshare:t=31", false}, {"gshare:t=40", false},
		{"twolevel:h=0", false}, {"twolevel:h=1", true}, {"twolevel:h=25", false},
		{"twolevel:variant=PAp,h=30", false}, {"twolevel:variant=PAp,h=24", false},
		{"twolevel:variant=PAp,h=20", true},
		{"twolevel:variant=SAs,bhrs=-1", false}, {"twolevel:variant=SAs,bhrs=1", true}, {"twolevel:variant=SAs,bhrs=21", false},
		{"twolevel:variant=SAs,phts=-1", false}, {"twolevel:variant=SAs,phts=1", true}, {"twolevel:variant=SAs,phts=17", false},
		{"gskew:t=0", false}, {"gskew:t=1", true}, {"gskew:t=29", false},
		{"gskew:h0=0", false}, {"gskew:h0=1", true}, {"gskew:h0=20", false}, {"gskew:h0=20,h1=20", true},
		{"gskew:h1=8", false}, {"gskew:h1=63", true}, {"gskew:h1=64", false},
		{"perceptron:t=0", false}, {"perceptron:t=1", true}, {"perceptron:t=27", false},
		{"loop:t=0", false}, {"loop:t=1", true}, {"loop:t=16", true}, {"loop:t=17", false},
		{"tage:tables=0", false}, {"tage:tables=1", true}, {"tage:tables=65", false},
		{"tage:minhist=0", false}, {"tage:minhist=1", true}, {"tage:minhist=400", false},
		{"tage:maxhist=3", false}, {"tage:maxhist=4", true}, {"tage:maxhist=65537", false},
		{"tage:t=0", false}, {"tage:t=1", true}, {"tage:t=25", false},
		{"tage:tag=0", false}, {"tage:tag=1", true}, {"tage:tag=16", true}, {"tage:tag=17", false},
		{"batage:tables=0", false}, {"batage:t=25", false}, {"batage:tag=17", false}, {"batage:maxhist=3", false},
		{"ogehl:t=0", false}, {"ogehl:t=1", true}, {"ogehl:t=27", false},
		{"ogehl:bits=1", false}, {"ogehl:bits=2", true}, {"ogehl:bits=8", true}, {"ogehl:bits=9", false},
		{"yags:choice=0", false}, {"yags:choice=1", true}, {"yags:choice=27", false},
		{"yags:cache=0", false}, {"yags:cache=1", true}, {"yags:cache=27", false},
		{"yags:h=0", false}, {"yags:h=1", true}, {"yags:h=63", true}, {"yags:h=64", false},
		{"agree:t=0", false}, {"agree:t=1", true}, {"agree:t=27", false},
		{"agree:h=0", false}, {"agree:h=1", true}, {"agree:h=63", true}, {"agree:h=64", false},
		{"alpha:local=0", false}, {"alpha:local=1", true}, {"alpha:local=21", false},
		{"alpha:global=0", false}, {"alpha:global=1", true}, {"alpha:global=27", false},
		{"filter:threshold=0", false}, {"filter:threshold=1", true}, {"filter:threshold=255", true}, {"filter:threshold=256", false},
		{"tournament:bp0=bimodal:bits=0", false}, {"tournament:meta=gshare:h=0", false}, {"tournament:bp1=gskew:h0=20", false},
		{"filter:inner=ogehl:bits=1", false},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("New(%q) panicked: %v", c.spec, v)
				}
			}()
			_, err := New(c.spec)
			if c.ok && err != nil {
				t.Errorf("New(%q): %v", c.spec, err)
			}
			if !c.ok && err == nil {
				t.Errorf("New(%q) accepted an out-of-range option", c.spec)
			}
		}()
	}
}
