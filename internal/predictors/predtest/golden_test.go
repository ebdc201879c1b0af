package predtest_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mbplib/internal/bench"
	"mbplib/internal/bp"
	"mbplib/internal/predictors/registry"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json with the current predictor behaviour")

// goldenCell is the behaviour of one predictor over one trace: what the
// simulator counted, what the predictor reports about itself, and a digest
// of its serialized state at the end of the trace.
type goldenCell struct {
	Mispredictions      uint64          `json:"mispredictions"`
	ConditionalBranches uint64          `json:"conditional_branches"`
	Statistics          json.RawMessage `json:"statistics,omitempty"`
	CheckpointSHA256    string          `json:"checkpoint_sha256,omitempty"`
}

// goldenPredictors are the Table III predictors plus O-GEHL, the other
// folded-history consumer.
func goldenPredictors() []string {
	var specs []string
	for _, p := range bench.TableIIIPredictors {
		specs = append(specs, p.Spec)
	}
	return append(specs, "ogehl")
}

// runGoldenCell simulates a fresh predictor (through the batch kernel when
// kernel is true, through the scalar Predict/Train/Track loop otherwise)
// over one trace and records its cell.
func runGoldenCell(t *testing.T, spec string, trace tracegen.Spec, kernel bool) goldenCell {
	t.Helper()
	p, err := registry.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := p
	if !kernel {
		run = bp.ScalarOnly(p)
	}
	g, err := tracegen.New(trace)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, run, sim.Config{TraceName: trace.Name})
	if err != nil {
		t.Fatal(err)
	}
	cell := goldenCell{
		Mispredictions:      res.Metrics.Mispredictions,
		ConditionalBranches: res.Metadata.NumConditionalBranches,
	}
	if sp, ok := p.(bp.StatsProvider); ok {
		if cell.Statistics, err = json.Marshal(sp.Statistics()); err != nil {
			t.Fatal(err)
		}
	}
	if cp, ok := p.(bp.Checkpointer); ok {
		var buf bytes.Buffer
		if err := cp.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		cell.CheckpointSHA256 = hex.EncodeToString(sum[:])
	}
	return cell
}

// TestGoldenBehaviour pins every prediction-visible output of the
// table-driven predictors over the seeded cbp5-train suite at scale 10k:
// misprediction and conditional-branch counts, Statistics() and the digest
// of the final checkpoint. Kernel rewrites (hashing, history folding, entry
// packing) must leave the file byte-identical; both the batch kernel and
// the scalar path are held to it. Regenerate with -update only for an
// intentional behaviour change.
func TestGoldenBehaviour(t *testing.T) {
	traces, err := tracegen.Suite("cbp5-train", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	specs := goldenPredictors()
	got := make(map[string]map[string]goldenCell, len(specs))
	for _, spec := range specs {
		got[spec] = make(map[string]goldenCell, len(traces))
	}
	t.Run("cells", func(t *testing.T) {
		for _, spec := range specs {
			spec, cells := spec, got[spec]
			t.Run(spec, func(t *testing.T) {
				t.Parallel()
				for _, trace := range traces {
					cell := runGoldenCell(t, spec, trace, true)
					if scalar := runGoldenCell(t, spec, trace, false); !cellsEqual(cell, scalar) {
						t.Errorf("%s: kernel cell %+v, scalar cell %+v", trace.Name, cell, scalar)
					}
					cells[trace.Name] = cell
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(data, want) {
		var wantCells map[string]map[string]goldenCell
		if err := json.Unmarshal(want, &wantCells); err != nil {
			t.Fatalf("corrupt %s: %v", path, err)
		}
		for _, spec := range specs {
			for _, trace := range traces {
				if g, w := got[spec][trace.Name], wantCells[spec][trace.Name]; !cellsEqual(g, w) {
					t.Errorf("%s on %s: got %+v, want %+v", spec, trace.Name, g, w)
				}
			}
		}
		t.Errorf("%s differs from the current behaviour", path)
	}
}

func cellsEqual(a, b goldenCell) bool {
	return a.Mispredictions == b.Mispredictions && a.ConditionalBranches == b.ConditionalBranches &&
		bytes.Equal(a.Statistics, b.Statistics) && a.CheckpointSHA256 == b.CheckpointSHA256
}
