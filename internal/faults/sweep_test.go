// The corruption sweep: the acceptance test of the fault-tolerance layer.
// For seed traces in every format the suite reads, it injects a truncation
// at every byte offset and a bit-flip in every byte and requires the reader
// to fail with an error classified by the faults taxonomy — never panic,
// never hang, never succeed silently where the format guarantees detection.
//
// Detection strength differs by format and the assertions encode that:
//
//   - Checksummed SBBT detects every single-bit flip and every truncation.
//   - BT9 is plain text with no integrity data: a flipped hex digit in an
//     address yields a different but valid trace, so flips assert "typed
//     error or clean success"; truncations must all fail except cuts into
//     the final line's trailing bytes, which can leave a complete sequence.
//   - MLZ-compressed checksummed SBBT: a flip can land in bits the decoder
//     never lets reach the consumer (Huffman padding, the frame terminator
//     the trace reader stops short of), so the contract is "typed error, or
//     success with a byte-identical event stream" — silent corruption of
//     consumed data is impossible either way.
//   - CST (the cycle trace) has no integrity data either: record flips
//     assert "typed error or clean success", while every truncation, header
//     cuts included, must fail typed.
package faults_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"mbplib/internal/bp"
	"mbplib/internal/bt9"
	"mbplib/internal/compress"
	"mbplib/internal/cst"
	"mbplib/internal/faults"
	"mbplib/internal/sbbt"
)

// seedEvents builds a deterministic event stream that exercises several
// opcodes and gap values.
func seedEvents(n int) []bp.Event {
	evs := make([]bp.Event, n)
	for i := range evs {
		op, taken, target := bp.OpCondJump, i%3 != 0, uint64(0x500000+(i%29)*16)
		switch i % 7 {
		case 5:
			op, taken = bp.OpCall, true
		case 6:
			op, taken, target = bp.OpRet, true, uint64(0x600000+(i%11)*8)
		}
		evs[i] = bp.Event{
			Branch:                bp.Branch{IP: 0x400000 + uint64(i%43)*4 + uint64(op)<<20, Target: target, Opcode: op, Taken: taken},
			InstrsSinceLastBranch: uint64(i % 9),
		}
	}
	return evs
}

func eventTotals(evs []bp.Event) (instrs, branches uint64) {
	for _, ev := range evs {
		instrs += ev.InstrsSinceLastBranch + 1
	}
	return instrs, uint64(len(evs))
}

func seedSBBT(t *testing.T, evs []bp.Event) []byte {
	t.Helper()
	instrs, branches := eventTotals(evs)
	var buf bytes.Buffer
	w, err := sbbt.NewChecksumWriter(&buf, instrs, branches)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func seedBT9(t *testing.T, evs []bp.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bt9.NewWriter(&buf)
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain opens r with open and consumes events until EOF or error, with a
// hard cap that turns any reader loop bug into a test failure instead of a
// hang.
func drain(t *testing.T, r io.Reader, open func(io.Reader) (bp.Reader, error), cap int) error {
	t.Helper()
	br, err := open(r)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		if i > cap {
			t.Fatalf("reader did not terminate after %d events", cap)
		}
		if _, err := br.Read(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func openSBBT(r io.Reader) (bp.Reader, error) { return sbbt.NewReader(r) }
func openBT9(r io.Reader) (bp.Reader, error)  { return bt9.NewReader(r) }

// openMLZ stacks the auto-detecting decompressor under the SBBT reader, the
// way simulators open distributed traces.
func openMLZ(r io.Reader) (bp.Reader, error) {
	dr, err := compress.NewReader(r)
	if err != nil {
		return nil, err
	}
	return sbbt.NewReader(dr)
}

// requireTyped fails unless err is classified by the taxonomy.
func requireTyped(t *testing.T, context string, err error) {
	t.Helper()
	if faults.Class(err) == "other" {
		t.Fatalf("%s: untyped error: %v", context, err)
	}
}

func TestSweepSBBTTruncation(t *testing.T) {
	evs := seedEvents(300)
	data := seedSBBT(t, evs)
	for off := 0; off < len(data); off++ {
		err := drain(t, faults.NewInjector(bytes.NewReader(data), faults.Truncate(int64(off))), openSBBT, 2*len(evs))
		if err == nil {
			t.Fatalf("truncation at %d not detected", off)
		}
		requireTyped(t, "truncation", err)
	}
}

func TestSweepSBBTBitFlips(t *testing.T) {
	evs := seedEvents(300)
	data := seedSBBT(t, evs)
	for off := 0; off < len(data); off++ {
		for bit := uint8(0); bit < 8; bit++ {
			err := drain(t, faults.NewInjector(bytes.NewReader(data), faults.BitFlip(int64(off), bit)), openSBBT, 2*len(evs))
			if err == nil {
				t.Fatalf("bit flip at %d.%d not detected", off, bit)
			}
			requireTyped(t, "bit flip", err)
		}
	}
}

func TestSweepSBBTGarbage(t *testing.T) {
	evs := seedEvents(300)
	data := seedSBBT(t, evs)
	for off := 0; off < len(data); off += 13 {
		err := drain(t, faults.NewInjector(bytes.NewReader(data), faults.Garbage(int64(off), 16, uint64(off))), openSBBT, 2*len(evs))
		if err == nil {
			// Garbage may reproduce the original bytes; verify it did.
			var out bytes.Buffer
			io.Copy(&out, faults.NewInjector(bytes.NewReader(data), faults.Garbage(int64(off), 16, uint64(off)))) //nolint:errcheck
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("garbage at %d changed bytes but was not detected", off)
			}
			continue
		}
		requireTyped(t, "garbage", err)
	}
}

// seedCST writes a small ChampSim-style trace: a mix of branch and
// non-branch records behind the 12-byte header.
func seedCST(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := cst.NewWriter(&buf, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		in := cst.Instruction{IP: 0x400000 + uint64(i)*4, SrcMem: [4]uint64{uint64(i % 3)}}
		if i%4 == 3 {
			in.SetBranch(bp.OpCondJump, i%8 == 3)
		}
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainCST reads every record of a CST stream, capped like drain.
func drainCST(t *testing.T, r io.Reader, cap int) error {
	t.Helper()
	cr, err := cst.NewReader(r)
	if err != nil {
		return err
	}
	var in cst.Instruction
	for i := 0; ; i++ {
		if i > cap {
			t.Fatalf("reader did not terminate after %d records", cap)
		}
		if err := cr.Read(&in); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// TestSweepCSTTruncation: every proper prefix of a CST trace fails typed,
// including cuts inside the 12-byte header.
func TestSweepCSTTruncation(t *testing.T) {
	const n = 24
	data := seedCST(t, n)
	for off := 0; off < len(data); off++ {
		err := drainCST(t, faults.NewInjector(bytes.NewReader(data), faults.Truncate(int64(off))), 2*n)
		if err == nil {
			t.Fatalf("truncation at %d not detected", off)
		}
		requireTyped(t, "truncation", err)
	}
}

// TestSweepCSTBitFlips: CST carries no integrity data, so a flip in a
// record reads cleanly; every flip either reads cleanly or fails typed, and
// a flip in the magic always fails as corrupt.
func TestSweepCSTBitFlips(t *testing.T) {
	const n = 24
	data := seedCST(t, n)
	for off := 0; off < len(data); off++ {
		for bit := uint8(0); bit < 8; bit++ {
			err := drainCST(t, faults.NewInjector(bytes.NewReader(data), faults.BitFlip(int64(off), bit)), 2*n)
			if off < len(cst.Magic) && !errors.Is(err, faults.ErrCorrupt) {
				t.Fatalf("bit flip in magic at %d.%d: err = %v, want corrupt", off, bit, err)
			}
			if err != nil {
				requireTyped(t, "bit flip", err)
			}
		}
	}
}

func TestSweepBT9Truncation(t *testing.T) {
	evs := seedEvents(200)
	data := seedBT9(t, evs)
	// Cuts into the final line's bytes can leave a complete, count-matching
	// sequence: a text format cannot detect the loss of trailing bytes.
	lastLine := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n') + 1
	successes := 0
	for off := 0; off < len(data); off++ {
		err := drain(t, faults.NewInjector(bytes.NewReader(data), faults.Truncate(int64(off))), openBT9, 2*len(evs))
		if err == nil {
			if off <= lastLine {
				t.Fatalf("truncation at %d (before final line at %d) not detected", off, lastLine)
			}
			successes++
			continue
		}
		requireTyped(t, "truncation", err)
	}
	if tail := len(data) - lastLine; successes > tail {
		t.Errorf("%d undetected truncations, more than the %d-byte final line", successes, tail)
	}
}

func TestSweepBT9BitFlips(t *testing.T) {
	evs := seedEvents(200)
	data := seedBT9(t, evs)
	for off := 0; off < len(data); off++ {
		err := drain(t, faults.NewInjector(bytes.NewReader(data), faults.BitFlip(int64(off), uint8(off%8))), openBT9, 4*len(evs))
		if err != nil {
			// Text flips may land in ignorable positions (an address digit);
			// when they do error, the error must be typed.
			requireTyped(t, "bit flip", err)
		}
	}
}

func compressMLZ(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := compress.NewMLZWriter(&buf, compress.LevelBest)
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drainVerify is drain plus an exactness check on clean EOF: a checksummed
// stream may deliver corrupted events before the chunk trailer that exposes
// them (detection is per chunk, like gzip's per-stream CRC), but if the
// reader reaches clean EOF every checksum passed, so the event stream must
// equal want — a "success" can never hide corruption.
func drainVerify(t *testing.T, r io.Reader, open func(io.Reader) (bp.Reader, error), want []bp.Event) error {
	t.Helper()
	br, err := open(r)
	if err != nil {
		return err
	}
	mismatch := -1
	for i := 0; ; i++ {
		if i > 2*len(want) {
			t.Fatalf("reader did not terminate after %d events", 2*len(want))
		}
		ev, err := br.Read()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("clean EOF after %d of %d events", i, len(want))
			}
			if mismatch >= 0 {
				t.Fatalf("event %d silently corrupted, stream ended cleanly", mismatch)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if mismatch < 0 && (i >= len(want) || ev != want[i]) {
			mismatch = i
		}
	}
}

func TestSweepMLZTruncation(t *testing.T) {
	evs := seedEvents(300)
	data := compressMLZ(t, seedSBBT(t, evs))
	for off := 0; off < len(data); off++ {
		err := drainVerify(t, faults.NewInjector(bytes.NewReader(data), faults.Truncate(int64(off))), openMLZ, evs)
		if err == nil {
			continue // cut past everything the consumer reads; stream intact
		}
		requireTyped(t, "truncation", err)
	}
}

func TestSweepMLZBitFlips(t *testing.T) {
	evs := seedEvents(300)
	data := compressMLZ(t, seedSBBT(t, evs))
	for off := 0; off < len(data); off++ {
		for bit := uint8(0); bit < 8; bit++ {
			err := drainVerify(t, faults.NewInjector(bytes.NewReader(data), faults.BitFlip(int64(off), bit)), openMLZ, evs)
			if err == nil {
				continue // flip in dont-care bits; stream verified intact
			}
			requireTyped(t, "bit flip", err)
		}
	}
}

func compressMLZS(t *testing.T, raw []byte, chunkSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := compress.NewMLZSWriter(&buf, compress.MLZSOptions{ChunkSize: chunkSize, Level: compress.LevelBest})
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openMLZS stacks the auto-detecting decompressor (which recognises the
// chunked container) under the SBBT reader.
func openMLZS(r io.Reader) (bp.Reader, error) { return openMLZ(r) }

// TestSweepMLZSTruncation cuts the chunked container at every byte offset:
// header, chunk frames, payloads, CRCs, index trailer and footer. The
// streaming reader reads no further than the trailer's chunk count, so cuts
// past it are invisible to it — the contract is "typed error, or
// verified-intact stream".
func TestSweepMLZSTruncation(t *testing.T) {
	evs := seedEvents(300)
	data := compressMLZS(t, seedSBBT(t, evs), 512)
	for off := 0; off < len(data); off++ {
		err := drainVerify(t, faults.NewInjector(bytes.NewReader(data), faults.Truncate(int64(off))), openMLZS, evs)
		if err == nil {
			continue // cut past everything the consumer reads; stream intact
		}
		requireTyped(t, "truncation", err)
	}
}

// TestSweepMLZSBitFlips flips every bit of every byte of the container.
// Per-chunk CRC-32C catches any payload or frame damage the decoder would
// otherwise propagate; trailer flips past the chunk count are unread by the
// streaming path.
func TestSweepMLZSBitFlips(t *testing.T) {
	evs := seedEvents(300)
	data := compressMLZS(t, seedSBBT(t, evs), 512)
	for off := 0; off < len(data); off++ {
		for bit := uint8(0); bit < 8; bit++ {
			err := drainVerify(t, faults.NewInjector(bytes.NewReader(data), faults.BitFlip(int64(off), bit)), openMLZS, evs)
			if err == nil {
				continue // flip in dont-care bits; stream verified intact
			}
			requireTyped(t, "bit flip", err)
		}
	}
}

// TestSweepMLZSChunkIsolation flips one byte at every offset of the
// container and streams it: every event the reader delivers before its
// typed error equals the original (per-chunk CRC-32C never lets a damaged
// chunk through), and damage is confined to the chunk that carries it —
// every event held wholly in the chunks before it is still delivered. A
// flip past the last frame damages no chunk, so every event arrives.
func TestSweepMLZSChunkIsolation(t *testing.T) {
	evs := seedEvents(300)
	raw := seedSBBT(t, evs)
	data := compressMLZS(t, raw, 512)
	ix, err := compress.ReadMLZSIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// The packets follow the header and its checksum; the one trailer of
	// a trace under sbbt.ChecksumChunkPackets packets follows them.
	hdr := len(raw) - len(evs)*sbbt.PacketSize - sbbt.ChecksumSize
	// The end tag sits just before the index trailer, whose length the
	// 12-byte footer gives.
	endTag := len(data) - 12 - int(binary.LittleEndian.Uint32(data[len(data)-12:])) - 1
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		// The chunks before the damaged one, whose frame holds off: none
		// for a flip in the header, all from the end tag on.
		intact := ix.RawSize
		if off < endTag {
			intact = 0
			if k := sort.Search(ix.NumChunks(), func(i int) bool { return ix.Chunks[i].Off > int64(off) }) - 1; k >= 0 {
				intact = ix.Chunks[k].RawOff
			}
		}
		want := min(len(evs), max(0, (int(intact)-hdr)/sbbt.PacketSize))
		br, err := openMLZS(bytes.NewReader(mut))
		n := 0
		for err == nil {
			var ev bp.Event
			if ev, err = br.Read(); err == nil {
				if n >= len(evs) || ev != evs[n] {
					t.Fatalf("flip at %d: event %d delivered wrong before the error", off, n)
				}
				n++
			}
		}
		if err != io.EOF {
			requireTyped(t, fmt.Sprintf("flip at %d", off), err)
		} else if n != len(evs) {
			t.Fatalf("flip at %d: clean end after %d of %d events", off, n, len(evs))
		}
		if n < want {
			t.Fatalf("flip at %d: %d events delivered, want the %d before the damaged chunk", off, n, want)
		}
	}
}

// TestSweepHostileHeaders: implausible header-declared sizes are rejected
// with ErrLimit before the reader allocates for them.
func TestSweepHostileHeaders(t *testing.T) {
	huge := sbbt.NewHeader(1<<60, 1<<55).AppendTo(nil)
	if _, err := sbbt.NewReader(bytes.NewReader(huge)); !errors.Is(err, faults.ErrLimit) {
		t.Errorf("sbbt oversized count: %v, want ErrLimit", err)
	}

	text := bt9.Magic + "\nbranch_instruction_count: 99999999999999999\n"
	if _, err := bt9.NewReader(bytes.NewReader([]byte(text))); !errors.Is(err, faults.ErrLimit) {
		t.Errorf("bt9 oversized count: %v, want ErrLimit", err)
	}
}

// TestSweepShortReads: every reader must produce identical events under any
// read fragmentation.
func TestSweepShortReads(t *testing.T) {
	evs := seedEvents(500)
	for _, tc := range []struct {
		name string
		data []byte
		open func(io.Reader) (bp.Reader, error)
	}{
		{"sbbt", seedSBBT(t, evs), openSBBT},
		{"bt9", seedBT9(t, evs), openBT9},
		{"mlz", compressMLZ(t, seedSBBT(t, evs)), openMLZ},
		{"mlzs", compressMLZS(t, seedSBBT(t, evs), 512), openMLZS},
	} {
		r, err := tc.open(faults.ShortReads(bytes.NewReader(tc.data), 3))
		if err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		for i, want := range evs {
			got, err := r.Read()
			if err != nil {
				t.Fatalf("%s: Read %d: %v", tc.name, i, err)
			}
			if got != want {
				t.Fatalf("%s: event %d mismatch under short reads", tc.name, i)
			}
		}
		if _, err := r.Read(); err != io.EOF {
			t.Fatalf("%s: tail err = %v, want io.EOF", tc.name, err)
		}
	}
}
