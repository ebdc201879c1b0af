package predtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/sim"
	"mbplib/internal/tracegen"
)

// This file is the predictor conformance suite: behavioural contracts every
// registry predictor must satisfy, checked dynamically against the same
// mixed workload. Each check constructs fresh instances through newP —
// predictors are stateful, and several contracts are statements about two
// instances fed the same stream.

// conformanceEvents replays the mixed workload to f, stopping at io.EOF.
func conformanceEvents(t *testing.T, branches uint64, f func(bp.Event)) {
	t.Helper()
	g, err := tracegen.New(MixedSpec(branches))
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := g.Read()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		f(ev)
	}
}

// predictionStream drives one fresh predictor over the mixed workload and
// packs every conditional prediction into a bitstream. extraPredicts adds
// that many redundant Predict calls before the recorded one, to observe
// whether Predict mutates state.
func predictionStream(t *testing.T, newP func() bp.Predictor, branches uint64, extraPredicts int) []byte {
	t.Helper()
	p := newP()
	var bits []byte
	n := 0
	conformanceEvents(t, branches, func(ev bp.Event) {
		b := ev.Branch
		if b.IsConditional() {
			for i := 0; i < extraPredicts; i++ {
				p.Predict(b.IP)
			}
			if n%8 == 0 {
				bits = append(bits, 0)
			}
			if p.Predict(b.IP) {
				bits[n/8] |= 1 << (n % 8)
			}
			n++
			p.Train(b)
		}
		p.Track(b)
	})
	return bits
}

// CheckReplayDeterminism verifies that two fresh instances driven by the
// same event stream make identical predictions — a predictor must not
// depend on anything but its inputs (no clocks, no map iteration order, no
// global RNG), or sweep results would not be reproducible.
func CheckReplayDeterminism(t *testing.T, newP func() bp.Predictor, branches uint64) {
	t.Helper()
	a := predictionStream(t, newP, branches, 0)
	b := predictionStream(t, newP, branches, 0)
	if !bytes.Equal(a, b) {
		t.Errorf("two replays of the same stream predicted differently")
	}
}

// CheckPredictSideEffectFree is the dynamic form of mbpvet's V1 rule: extra
// Predict calls between training events must not change any subsequent
// prediction. A predictor updating state in Predict (speculative history,
// allocation on lookup) diverges here.
func CheckPredictSideEffectFree(t *testing.T, newP func() bp.Predictor, branches uint64) {
	t.Helper()
	clean := predictionStream(t, newP, branches, 0)
	noisy := predictionStream(t, newP, branches, 3)
	if !bytes.Equal(clean, noisy) {
		t.Errorf("redundant Predict calls changed later predictions (Predict mutates state)")
	}
}

// CheckCallOrderTolerance verifies a predictor survives call patterns other
// than the canonical Predict/Train/Track cycle: Train without a preceding
// Predict (the simulator's warm-up fast path), and Track-only streams
// (unconditional branches). The predictor must not panic and must still
// answer afterwards — and training without predicts must leave it in the
// same state as training with them (Predict is read-only, so the two
// schedules are indistinguishable).
func CheckCallOrderTolerance(t *testing.T, newP func() bp.Predictor, branches uint64) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Errorf("predictor panicked under non-canonical call order: %v", v)
		}
	}()
	// Train/Track with no Predict at all.
	blind := newP()
	conformanceEvents(t, branches, func(ev bp.Event) {
		if ev.Branch.IsConditional() {
			blind.Train(ev.Branch)
		}
		blind.Track(ev.Branch)
	})
	// Predict/Train/Track, same stream.
	sighted := newP()
	conformanceEvents(t, branches, func(ev bp.Event) {
		if ev.Branch.IsConditional() {
			sighted.Predict(ev.Branch.IP)
			sighted.Train(ev.Branch)
		}
		sighted.Track(ev.Branch)
	})
	// Both must agree afterwards: predicting is observation, not training.
	diverged := false
	conformanceEvents(t, branches/4, func(ev bp.Event) {
		b := ev.Branch
		if b.IsConditional() && !diverged {
			if blind.Predict(b.IP) != sighted.Predict(b.IP) {
				diverged = true
			}
			blind.Train(b)
			sighted.Train(b)
		}
		blind.Track(b)
		sighted.Track(b)
	})
	if diverged {
		t.Errorf("training without Predict calls produced a different state than training with them")
	}
	// Track-only stream (all-unconditional trace) on a fresh instance.
	trackOnly := newP()
	conformanceEvents(t, branches/4, func(ev bp.Event) {
		trackOnly.Track(ev.Branch)
	})
	trackOnly.Predict(0x40_0000)
}

// CheckCheckpointRoundTrip is the conformance law for bp.Checkpointer: a
// checkpoint taken mid-stream and restored into a fresh instance of the
// same configuration must be indistinguishable from the original from then
// on — identical predictions over the rest of the stream, identical
// statistics, and an identical second checkpoint. Predictors that do not
// implement Checkpointer skip.
func CheckCheckpointRoundTrip(t *testing.T, newP func() bp.Predictor, branches uint64) {
	t.Helper()
	probe, ok := newP().(bp.Checkpointer)
	if !ok {
		t.Skip("predictor does not implement bp.Checkpointer")
	}
	_ = probe

	var events []bp.Event
	conformanceEvents(t, branches, func(ev bp.Event) { events = append(events, ev) })
	drive := func(p bp.Predictor, evs []bp.Event, other bp.Predictor) {
		for i, ev := range evs {
			b := ev.Branch
			if b.IsConditional() {
				got := p.Predict(b.IP)
				if other != nil {
					if want := other.Predict(b.IP); got != want {
						t.Fatalf("event %d after restore: prediction %v, original predicts %v", i, got, want)
					}
				}
				p.Train(b)
				if other != nil {
					other.Train(b)
				}
			}
			p.Track(b)
			if other != nil {
				other.Track(b)
			}
		}
	}

	original := newP()
	drive(original, events[:len(events)/2], nil)

	var ckpt bytes.Buffer
	if err := original.(bp.Checkpointer).Checkpoint(&ckpt); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	restored := newP()
	if err := restored.(bp.Checkpointer).Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// Same predictions for the rest of the stream.
	drive(restored, events[len(events)/2:], original)

	// Same statistics, when the predictor reports any.
	if so, ok := original.(bp.StatsProvider); ok {
		ss := restored.(bp.StatsProvider).Statistics()
		for k, want := range so.Statistics() {
			if got := ss[k]; got != want {
				t.Errorf("statistic %q = %v after restore, original has %v", k, got, want)
			}
		}
	}

	// A second checkpoint of both instances must be byte-identical: the
	// serialized states, not just the visible behaviour, have converged.
	var a, b bytes.Buffer
	if err := original.(bp.Checkpointer).Checkpoint(&a); err != nil {
		t.Fatalf("second Checkpoint (original): %v", err)
	}
	if err := restored.(bp.Checkpointer).Checkpoint(&b); err != nil {
		t.Fatalf("second Checkpoint (restored): %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("checkpoints diverge after restore: %d vs %d bytes", a.Len(), b.Len())
	}

	// Every truncation of a checkpoint must be rejected with an error, and
	// never panic. (The truncated restore may leave its instance in an
	// unspecified state; a fresh one is used each time.)
	full := ckpt.Bytes()
	for _, n := range []int{0, 1, len(full) / 2, len(full) - 1} {
		if n >= len(full) {
			continue
		}
		if err := newP().(bp.Checkpointer).Restore(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("Restore of %d/%d-byte prefix succeeded", n, len(full))
		}
	}
}

// CheckBatchScalarEquivalence verifies the predictor behaves identically
// under the batched pipeline and the scalar reference loop: byte-identical
// result JSON across warm-up and limit configurations. A predictor cannot
// tell the difference between the two loops unless it is sensitive to
// something outside the bp.Predictor contract.
func CheckBatchScalarEquivalence(t *testing.T, newP func() bp.Predictor, branches uint64) {
	t.Helper()
	spec := MixedSpec(branches)
	configs := []sim.Config{
		{TraceName: "conformance"},
		{TraceName: "conformance", WarmupInstructions: 3 * branches}, // lands mid-trace
		{TraceName: "conformance", SimInstructions: 4 * branches},
	}
	for i, cfg := range configs {
		newGen := func() *tracegen.Generator {
			g, err := tracegen.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		scalar, err := sim.RunScalar(newGen(), newP(), cfg)
		if err != nil {
			t.Fatalf("cfg %d: RunScalar: %v", i, err)
		}
		batched, err := sim.Run(newGen(), newP(), cfg)
		if err != nil {
			t.Fatalf("cfg %d: Run: %v", i, err)
		}
		scalar.Metrics.SimulationTime = 0
		batched.Metrics.SimulationTime = 0
		sj, err := json.Marshal(scalar)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(batched)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, bj) {
			t.Errorf("cfg %d: batched result differs from scalar:\nscalar:  %s\nbatched: %s", i, sj, bj)
		}
	}
}

// chunkSizes is the batch-split pattern the batch-kernel laws drive
// predictors with: a mix of degenerate (0, 1) and bulky splits, so a kernel
// that carries state across a batch boundary incorrectly, or mishandles an
// empty or single-branch batch, cannot pass by accident.
var chunkSizes = []int{1, 0, 3, 64, 1, 1021, 7}

// driveChunks feeds branches to p through bp.SimulateBatch in the cycling
// chunkSizes pattern, recording conditional predictions into out (which
// must have len(branches) entries).
func driveChunks(p bp.Predictor, branches []bp.Branch, out []bp.Prediction) {
	base, ci := 0, 0
	for base < len(branches) {
		n := chunkSizes[ci%len(chunkSizes)]
		ci++
		if n > len(branches)-base {
			n = len(branches) - base
		}
		bp.SimulateBatch(p, branches[base:base+n], out[base:base+n])
		base += n
	}
}

// conformanceStream returns the mixed workload as events and as the
// branches a kernel consumes.
func conformanceStream(t *testing.T, branches uint64) ([]bp.Event, []bp.Branch) {
	t.Helper()
	var events []bp.Event
	conformanceEvents(t, branches, func(ev bp.Event) { events = append(events, ev) })
	stream := make([]bp.Branch, len(events))
	for i := range events {
		stream[i] = events[i].Branch
	}
	return events, stream
}

// CheckKernelMatchesScalar drives one fresh instance through its native
// kernel and another through the scalar reference loop (bp.ScalarOnly),
// both via bp.SimulateBatch under the adversarial chunkSizes splits, and
// fails on the first conditional branch they predict differently. It
// returns both instances, unwrapped, so a predictor without a checkpoint
// format can compare its final state field by field.
func CheckKernelMatchesScalar(t *testing.T, newP func() bp.Predictor, branches uint64) (kernel, scalar bp.Predictor) {
	t.Helper()
	_, stream := conformanceStream(t, branches)
	kernel, scalar = newP(), newP()
	kernelOut := make([]bp.Prediction, len(stream))
	driveChunks(kernel, stream, kernelOut)
	scalarOut := make([]bp.Prediction, len(stream))
	driveChunks(bp.ScalarOnly(scalar), stream, scalarOut)
	for i := range stream {
		if stream[i].Opcode.IsConditional() && kernelOut[i] != scalarOut[i] {
			t.Fatalf("branch %d (ip %#x): kernel predicted %v, scalar path %v", i, stream[i].IP, kernelOut[i], scalarOut[i])
		}
	}
	return kernel, scalar
}

// faultAfterReader yields the given events and then a non-EOF error, so the
// failure lands mid-stream — and, for the batched pipeline, mid-batch.
type faultAfterReader struct {
	events []bp.Event
	pos    int
	err    error
}

func (r *faultAfterReader) Read() (bp.Event, error) {
	if r.pos >= len(r.events) {
		return bp.Event{}, r.err
	}
	ev := r.events[r.pos]
	r.pos++
	return ev, nil
}

// CheckBatchKernelConformance is the conformance law for bp.BatchPredictor:
// the native kernel must be indistinguishable from the scalar reference
// path. It verifies, over the mixed workload,
//
//   - per-branch prediction equality between the kernel (driven through
//     bp.SimulateBatch under adversarial batch splits) and the scalar
//     reference loop,
//   - final checkpoint byte-equality between the two paths,
//   - PredictBatch purity (checkpoint bytes unchanged) and agreement with
//     Predict,
//   - that TrainBatch and PredictBatch leave their branches as they found
//     them (the lanes of a sweep share one slice),
//   - and sim-level equivalence when the trace faults mid-batch: Run and
//     RunScalar must surface the identical reader error.
//
// Predictors without a native kernel skip: their SimulateBatch path is the
// scalar loop by construction.
func CheckBatchKernelConformance(t *testing.T, newP func() bp.Predictor, branches uint64) {
	t.Helper()
	kp, ok := newP().(bp.BatchPredictor)
	if !ok {
		t.Skip("predictor does not implement bp.BatchPredictor")
	}

	events, stream := conformanceStream(t, branches)
	in := slices.Clone(stream)
	kp.TrainBatch(in, make([]bp.Prediction, len(in)))
	if !slices.Equal(in, stream) {
		t.Errorf("TrainBatch modified the branches it was given")
	}
	copy(in, stream)
	kp.PredictBatch(in, make([]bp.Prediction, len(in)))
	if !slices.Equal(in, stream) {
		t.Errorf("PredictBatch modified the branches it was given")
	}
	kernel, scalar := CheckKernelMatchesScalar(t, newP, branches)
	if kc, ok := kernel.(bp.Checkpointer); ok {
		var kb, sb bytes.Buffer
		if err := kc.Checkpoint(&kb); err != nil {
			t.Fatalf("kernel Checkpoint: %v", err)
		}
		if err := scalar.(bp.Checkpointer).Checkpoint(&sb); err != nil {
			t.Fatalf("scalar Checkpoint: %v", err)
		}
		if !bytes.Equal(kb.Bytes(), sb.Bytes()) {
			t.Errorf("final state diverges between kernel and scalar paths: checkpoints of %d vs %d bytes differ", kb.Len(), sb.Len())
		}

		// PredictBatch purity: serialized state identical before and after,
		// and every prediction agrees with Predict under the same state.
		want := make([]bool, len(stream))
		for i := range stream {
			want[i] = kernel.Predict(stream[i].IP)
		}
		var before bytes.Buffer
		if err := kc.Checkpoint(&before); err != nil {
			t.Fatalf("Checkpoint before PredictBatch: %v", err)
		}
		got := make([]bp.Prediction, len(stream))
		kernel.(bp.BatchPredictor).PredictBatch(stream, got)
		var after bytes.Buffer
		if err := kc.Checkpoint(&after); err != nil {
			t.Fatalf("Checkpoint after PredictBatch: %v", err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("PredictBatch changed serialized state (%d vs %d bytes)", before.Len(), after.Len())
		}
		for i := range stream {
			if bool(got[i]) != want[i] {
				t.Fatalf("branch %d (ip %#x): PredictBatch predicted %v, Predict returns %v", i, stream[i].IP, got[i], want[i])
			}
		}
	}

	// Mid-batch fault: both pipelines must surface the identical error.
	faultErr := errors.New("conformance: injected trace fault")
	cut := len(events)/2 + 1
	_, kerr := sim.Run(&faultAfterReader{events: events[:cut], err: faultErr}, newP(), sim.Config{})
	_, serr := sim.RunScalar(&faultAfterReader{events: events[:cut], err: faultErr}, newP(), sim.Config{})
	if kerr == nil || serr == nil {
		t.Fatalf("mid-batch fault not surfaced: Run err %v, RunScalar err %v", kerr, serr)
	}
	if kerr.Error() != serr.Error() {
		t.Errorf("mid-batch fault differs between pipelines:\nRun:       %v\nRunScalar: %v", kerr, serr)
	}
}

// CheckCheckpointBatchResume is the crash-resume law for batch kernels: a
// checkpoint cut at a point that is NOT a batch boundary of the original
// run must restore and resume byte-identically on both the scalar and the
// kernel path — in every combination of which path produced the checkpoint
// and which path resumes from it. This is exactly the situation -resume
// creates when a sweep is interrupted mid-trace. Skips unless the predictor
// has both a native kernel and a checkpoint format.
func CheckCheckpointBatchResume(t *testing.T, newP func() bp.Predictor, branches uint64) {
	t.Helper()
	probe := newP()
	if _, ok := probe.(bp.BatchPredictor); !ok {
		t.Skip("predictor does not implement bp.BatchPredictor")
	}
	if _, ok := probe.(bp.Checkpointer); !ok {
		t.Skip("predictor does not implement bp.Checkpointer")
	}

	_, stream := conformanceStream(t, branches)
	// A cut that no chunk of driveChunks ends on, so the resumed first batch
	// is a partial one.
	cut := len(stream)/2 + 1

	ckptAt := func(drive func(p bp.Predictor, s []bp.Branch, out []bp.Prediction), p bp.Predictor, s []bp.Branch) []byte {
		out := make([]bp.Prediction, len(s))
		drive(p, s, out)
		var b bytes.Buffer
		if err := p.(bp.Checkpointer).Checkpoint(&b); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return b.Bytes()
	}
	scalarDrive := func(p bp.Predictor, s []bp.Branch, out []bp.Prediction) {
		driveChunks(bp.ScalarOnly(p), s, out)
	}
	kernelDrive := func(p bp.Predictor, s []bp.Branch, out []bp.Prediction) {
		driveChunks(p, s, out)
	}

	// Reference: scalar end-to-end.
	ref := ckptAt(scalarDrive, newP(), stream)

	halfScalar := ckptAt(scalarDrive, newP(), stream[:cut])
	halfKernel := ckptAt(kernelDrive, newP(), stream[:cut])
	if !bytes.Equal(halfScalar, halfKernel) {
		t.Fatalf("mid-stream checkpoints differ between scalar and kernel paths (%d vs %d bytes)", len(halfScalar), len(halfKernel))
	}

	for _, tc := range []struct {
		name  string
		from  []byte
		drive func(p bp.Predictor, s []bp.Branch, out []bp.Prediction)
	}{
		{"scalar-ckpt/kernel-resume", halfScalar, kernelDrive},
		{"kernel-ckpt/scalar-resume", halfKernel, scalarDrive},
		{"kernel-ckpt/kernel-resume", halfKernel, kernelDrive},
	} {
		p := newP()
		if err := p.(bp.Checkpointer).Restore(bytes.NewReader(tc.from)); err != nil {
			t.Fatalf("%s: Restore: %v", tc.name, err)
		}
		if got := ckptAt(tc.drive, p, stream[cut:]); !bytes.Equal(got, ref) {
			t.Errorf("%s: resumed final checkpoint differs from the uninterrupted scalar run (%d vs %d bytes)", tc.name, len(got), len(ref))
		}
	}
}
