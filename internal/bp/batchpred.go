package bp

import "io"

// This file is the batched predictor contract, the predictor-side twin of
// BatchReader: an optional interface that lets a predictor consume a whole
// decoded event batch per virtual call instead of three calls per branch,
// plus the SimulateBatch adapter that gives every scalar predictor the same
// batch-wise calling convention. See DESIGN.md, "Batched predictor kernels".

// Prediction is one recorded predicted outcome of a batch call: true
// predicts taken. A named type rather than a bare bool so batch buffers are
// self-describing in signatures.
type Prediction bool

// BatchPredictor is optionally implemented by predictors with native batch
// kernels. The simulator's hot loop dispatches whole decoded batches to it
// (via SimulateBatch), eliminating the three interface calls per branch of
// the scalar contract and letting implementations hoist table bases, carry
// folded history in registers across the batch, and reuse per-predictor
// scratch buffers.
//
// The contract (see also DESIGN.md):
//
//   - PredictBatch is the batched form of Predict and inherits its purity
//     rule (§IV-A, machine-checked by mbpvet V1): it fills out[i] with the
//     prediction Predict(branches[i].IP) would return under the current
//     state, for every i, without mutating any predictor state. Entries do
//     not see each other: all predictions are as-of the state on entry.
//   - TrainBatch is the fused simulation kernel: for each branch in order
//     it must behave exactly like the simulator's scalar sequence — record
//     the pre-update prediction for branches[i].IP into out[i] and apply
//     the Train update if the branch is conditional, then apply the Track
//     update for every branch. out entries of non-conditional branches are
//     left untouched. After TrainBatch returns, the predictor state must be
//     indistinguishable — checkpoint-byte-identical for Checkpointers —
//     from the state the equivalent scalar Predict/Train/Track calls
//     produce, for any split of the stream into batches (including length
//     zero and one).
//   - Neither call may retain branches or out; the caller owns and reuses
//     both across calls. len(out) >= len(branches) is the caller's duty.
//   - Neither call may modify branches: the simulator hands the same slice
//     to the kernel of every predictor of a trace group in turn.
//
// The scalar methods remain the semantic reference; predtest's batch-kernel
// conformance law enforces the equivalence registry-wide.
type BatchPredictor interface {
	Predictor
	// PredictBatch fills out[i] with the prediction for branches[i].IP
	// under the current state, without mutating any state.
	PredictBatch(branches []Branch, out []Prediction)
	// TrainBatch replays the resolved branches in simulator order,
	// recording pre-update predictions of conditional branches into out.
	TrainBatch(branches []Branch, out []Prediction)
}

// SimulateBatch runs one resolved batch through p with the simulator's
// per-branch sequence (predict, train if conditional, track), recording the
// predictions of conditional branches into out. Predictors implementing
// BatchPredictor run their native TrainBatch kernel; everything else goes
// through the scalar reference loop below, so callers can consume any
// predictor batch-wise without caring which kind they were handed.
//
// out must have at least len(branches) entries; entries of non-conditional
// branches are left untouched.
func SimulateBatch(p Predictor, branches []Branch, out []Prediction) {
	if kp, ok := p.(BatchPredictor); ok {
		kp.TrainBatch(branches, out)
		return
	}
	for i := range branches {
		b := &branches[i]
		if b.Opcode.IsConditional() {
			out[i] = Prediction(p.Predict(b.IP))
			p.Train(*b)
		}
		p.Track(*b)
	}
}

// ScalarOnly wraps p so it no longer satisfies BatchPredictor, forcing
// every consumer down the scalar Predict/Train/Track path while forwarding
// the optional Metadata, Statistics and Checkpointer capabilities. It is
// the A/B instrument of the batch-kernel work: benchmarks measure the
// kernel win by running the same pipeline against p and ScalarOnly(p), and
// equivalence tests use it to pin byte-identical results between the two
// paths. If p has no kernel it is returned unchanged.
func ScalarOnly(p Predictor) Predictor {
	if _, ok := p.(BatchPredictor); !ok {
		return p
	}
	s := scalarOnly{p}
	if _, ok := p.(Checkpointer); ok {
		return &scalarOnlyCkpt{s}
	}
	return &s
}

type scalarOnly struct{ p Predictor }

func (s *scalarOnly) Predict(ip uint64) bool { return s.p.Predict(ip) }
func (s *scalarOnly) Train(b Branch)         { s.p.Train(b) }
func (s *scalarOnly) Track(b Branch)         { s.p.Track(b) }

// Metadata forwards the wrapped predictor's metadata; wrapping must not
// change simulation output, only the dispatch path.
func (s *scalarOnly) Metadata() map[string]any {
	if mp, ok := s.p.(MetadataProvider); ok {
		return mp.Metadata()
	}
	return map[string]any{}
}

// Statistics forwards the wrapped predictor's statistics.
func (s *scalarOnly) Statistics() map[string]any {
	if sp, ok := s.p.(StatsProvider); ok {
		return sp.Statistics()
	}
	return map[string]any{}
}

// scalarOnlyCkpt adds Checkpointer forwarding for wrapped predictors that
// have it, so resumable sweeps checkpoint through the wrapper exactly as
// they would through the native predictor.
type scalarOnlyCkpt struct{ scalarOnly }

func (s *scalarOnlyCkpt) Checkpoint(w io.Writer) error {
	return s.p.(Checkpointer).Checkpoint(w)
}

func (s *scalarOnlyCkpt) Restore(r io.Reader) error {
	return s.p.(Checkpointer).Restore(r)
}
