// Package journal is the crash-safe sweep journal: an append-only log of
// completed (trace × predictor) cell results and in-flight predictor
// checkpoints, durable across SIGKILL. A sweep restarted with the same
// journal directory replays finished cells verbatim and schedules only the
// missing ones, so interrupting a long matrix never repeats finished work —
// the durability substrate the ROADMAP's mbpd daemon will mount directly.
//
// # On-disk format
//
// A journal is a directory of segment files named journal-NNNNNN.mbpj.
// Every segment starts with an 8-byte magic ("MBPJRNL1", the trailing digit
// is the format version) followed by length-prefixed records:
//
//	u32 LE  payload length
//	u32 LE  CRC-32C (Castagnoli) of the payload
//	bytes   payload (JSON-encoded record)
//
// Appends write the whole frame in one write call and fsync before
// reporting success, so a record is either fully committed or not present.
// Segments are created via tmp+rename (the header is synced before the
// rename, the directory after), and a new segment is started once the
// active one exceeds MaxSegmentBytes.
//
// # Recovery rules
//
// On Open the segments are replayed in name order. A torn frame (short
// header, short payload, or CRC mismatch) in the final segment is the tail
// of an interrupted append: everything after the last good record is
// truncated and the journal remains usable. A torn frame in any earlier
// segment cannot be explained by a crash — closed segments were fully
// synced before rotation — so it reports faults.ErrCorrupt and the journal
// refuses to open rather than silently dropping committed records. The same
// applies to a frame whose CRC is intact but whose payload does not decode,
// in any segment: the CRC proves the append completed, so the damage is not
// a crash artifact and truncation would drop committed records.
// Leftover *.tmp files (a crash between create and rename) are removed.
// Within the replay, later records win: a checkpoint supersedes earlier
// checkpoints for the same key, and a cell record supersedes checkpoints
// entirely — the cell is finished.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mbplib/internal/faults"
)

const (
	segMagic    = "MBPJRNL1"
	segPrefix   = "journal-"
	segSuffix   = ".mbpj"
	frameHeader = 8 // u32 length + u32 crc

	// maxRecordBytes bounds a single record payload; a length prefix beyond
	// it is treated as a torn/corrupt frame rather than an allocation
	// request. Predictor checkpoints dominate record size; the largest
	// default-configuration checkpoint (TAGE) is well under 8 MiB.
	maxRecordBytes = 64 << 20

	// DefaultMaxSegmentBytes is the rotation threshold for segment files.
	DefaultMaxSegmentBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CellRecord is the durable result of one finished sweep cell. Exactly one
// of Result and Failure is set; both are opaque JSON owned by the caller
// (the journal does not depend on the simulator's types) and must be
// json.Marshal output — the appender embeds the bytes verbatim rather than
// paying a validation pass over every record.
type CellRecord struct {
	Key     string          `json:"key"`
	Result  json.RawMessage `json:"result,omitempty"`
	Failure json.RawMessage `json:"failure,omitempty"`
}

// CheckpointRecord is a point-in-time snapshot of an in-flight cell:
// the number of trace events consumed and the serialized simulation state
// (predictor checkpoint plus loop counters) needed to resume from there.
type CheckpointRecord struct {
	Key    string `json:"key"`
	Events uint64 `json:"events"`
	State  []byte `json:"state"`
}

// record is the JSON envelope framed into segments; exactly one field set.
type record struct {
	Cell *CellRecord       `json:"cell,omitempty"`
	Ckpt *CheckpointRecord `json:"ckpt,omitempty"`
}

// Journal is an open sweep journal. All methods are safe for concurrent
// use; appends from sweep workers serialize internally.
type Journal struct {
	// MaxSegmentBytes is the rotation threshold. It may be lowered (e.g. by
	// tests) between Open and the first append; concurrent modification is
	// not supported.
	MaxSegmentBytes int64

	mu      sync.Mutex
	dir     string
	active  *os.File // current segment, opened for append
	size    int64    // bytes written to the active segment
	nextSeg int      // index for the next rotation
	cells   map[string]CellRecord
	ckpts   map[string]CheckpointRecord
	closed  bool
}

// Open opens (creating if necessary) the journal in dir and replays its
// contents, truncating a torn tail left by a crash mid-append.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		MaxSegmentBytes: DefaultMaxSegmentBytes,
		dir:             dir,
		cells:           make(map[string]CellRecord),
		ckpts:           make(map[string]CheckpointRecord),
	}
	segs, err := j.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := j.rotateLocked(); err != nil {
			return nil, err
		}
		return j, nil
	}
	for i, name := range segs {
		last := i == len(segs)-1
		if err := j.replaySegment(name, last); err != nil {
			return nil, err
		}
	}
	lastPath := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.active = f
	j.nextSeg = segIndex(segs[len(segs)-1]) + 1
	return j, nil
}

// listSegments returns the segment file names in replay order and removes
// leftover temporaries from an interrupted rotation.
func (j *Journal) listSegments() ([]string, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(j.dir, name)) //mbpvet:ignore droppederr -- best-effort cleanup: a stray .tmp never reaches replay and is retried next Open
			continue
		}
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segIndex(name string) int {
	num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n := 0
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// replaySegment loads one segment into the in-memory maps. For the final
// segment a torn tail is truncated in place; for earlier segments it is
// corruption.
func (j *Journal) replaySegment(name string, last bool) error {
	path := filepath.Join(j.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	good, perr := j.parseSegment(data)
	if perr != nil && (!last || errors.Is(perr, faults.ErrCorrupt)) {
		return fmt.Errorf("journal: segment %s: %v: %w", name, perr, faults.ErrCorrupt)
	}
	if perr != nil {
		// Torn tail of the crash segment: drop everything after the last
		// committed record. A header shorter than the magic is replaced by
		// a fresh header so the segment stays appendable.
		if good < int64(len(segMagic)) {
			if err := os.WriteFile(path, []byte(segMagic), 0o666); err != nil {
				return fmt.Errorf("journal: rewriting torn header: %w", err)
			}
			good = int64(len(segMagic))
		} else if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if last {
		j.size = good
	}
	return nil
}

// parseSegment replays the frames of one segment, returning the byte
// offset just past the last well-formed record and a non-nil error if
// anything after that offset is torn or corrupt.
func (j *Journal) parseSegment(data []byte) (int64, error) {
	if len(data) < len(segMagic) {
		return 0, fmt.Errorf("short header (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("bad magic %q", data[:len(segMagic)])
	}
	off := int64(len(segMagic))
	rest := data[len(segMagic):]
	for len(rest) > 0 {
		if len(rest) < frameHeader {
			return off, fmt.Errorf("torn frame header at offset %d", off)
		}
		n := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if n > maxRecordBytes {
			return off, fmt.Errorf("frame at offset %d declares %d bytes", off, n)
		}
		if len(rest) < frameHeader+int(n) {
			return off, fmt.Errorf("torn frame payload at offset %d", off)
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			return off, fmt.Errorf("CRC mismatch at offset %d", off)
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The CRC proved this frame was fully committed, so a decode
			// failure is not a torn tail — truncating here would silently
			// drop it and everything after it. Refuse the journal instead.
			return off, fmt.Errorf("committed record undecodable at offset %d: %v: %w", off, err, faults.ErrCorrupt)
		}
		j.apply(rec)
		off += int64(frameHeader) + int64(n)
		rest = rest[frameHeader+int(n):]
	}
	return off, nil
}

// apply folds one replayed record into the maps, later records winning.
func (j *Journal) apply(rec record) {
	switch {
	case rec.Cell != nil:
		j.cells[rec.Cell.Key] = *rec.Cell
		delete(j.ckpts, rec.Cell.Key)
	case rec.Ckpt != nil:
		if _, done := j.cells[rec.Ckpt.Key]; !done {
			j.ckpts[rec.Ckpt.Key] = *rec.Ckpt
		}
	}
}

// rotateLocked starts a fresh segment via tmp+rename. Callers hold mu (or
// have exclusive access during Open).
func (j *Journal) rotateLocked() error {
	name := fmt.Sprintf("%s%06d%s", segPrefix, j.nextSeg, segSuffix)
	tmp := filepath.Join(j.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()      //mbpvet:ignore droppederr -- error path: the write failure outranks a close failure on the doomed tmp file
		os.Remove(tmp) //mbpvet:ignore droppederr -- error path: best-effort cleanup; a stray .tmp is ignored on recovery
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()      //mbpvet:ignore droppederr -- error path: the sync failure outranks a close failure on the doomed tmp file
		os.Remove(tmp) //mbpvet:ignore droppederr -- error path: best-effort cleanup; a stray .tmp is ignored on recovery
		return fmt.Errorf("journal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //mbpvet:ignore droppederr -- error path: best-effort cleanup; a stray .tmp is ignored on recovery
		return fmt.Errorf("journal: %w", err)
	}
	final := filepath.Join(j.dir, name)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp) //mbpvet:ignore droppederr -- error path: best-effort cleanup; a stray .tmp is ignored on recovery
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	af, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.active != nil {
		if err := j.active.Close(); err != nil {
			af.Close() //mbpvet:ignore droppederr -- error path: the rotated segment's close failure is the one to report
			return fmt.Errorf("journal: closing rotated segment: %w", err)
		}
	}
	j.active = af
	j.size = int64(len(segMagic))
	j.nextSeg++
	return nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("journal: syncing directory: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: %w", cerr)
	}
	return nil
}

// encodeRecord assembles the record envelope. Cell payloads are opaque
// pre-encoded JSON, and pushing them through json.Marshal as a RawMessage
// re-validates and re-compacts every byte, which cost more CPU than the
// fsync when a cell's result carried a per-branch report. Cell envelopes are assembled by hand instead, with
// the payload bytes embedded verbatim and unchecked: callers own the
// payload contract (it must be json.Marshal output), and a violation is
// caught on replay, where the intact CRC distinguishes a committed
// undecodable record (corrupt, refuse the journal) from a torn tail.
func encodeRecord(rec record) ([]byte, error) {
	if rec.Cell == nil {
		return json.Marshal(rec)
	}
	body, field := rec.Cell.Result, `,"result":`
	if body == nil {
		body, field = rec.Cell.Failure, `,"failure":`
	}
	key, err := json.Marshal(rec.Cell.Key)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(`{"cell":{"key":`) + len(key) + len(field) + len(body) + len("}}"))
	buf.WriteString(`{"cell":{"key":`)
	buf.Write(key)
	buf.WriteString(field)
	buf.Write(body)
	buf.WriteString("}}")
	return buf.Bytes(), nil
}

// appendLocked frames, writes and fsyncs one record.
func (j *Journal) appendLocked(rec record) (int, error) {
	if j.closed {
		return 0, fmt.Errorf("journal: append after Close")
	}
	payload, err := encodeRecord(rec)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("journal: record of %d bytes exceeds limit", len(payload))
	}
	if j.size >= j.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return 0, err
		}
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	if _, err := j.active.Write(frame); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	if err := j.active.Sync(); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	j.size += int64(len(frame))
	return len(frame), nil
}

// AppendCell durably records a finished cell and returns the number of
// journal bytes written. Exactly one of rec.Result and rec.Failure must be
// set.
func (j *Journal) AppendCell(rec CellRecord) (int, error) {
	if rec.Key == "" {
		return 0, fmt.Errorf("journal: cell record without a key")
	}
	if (rec.Result == nil) == (rec.Failure == nil) {
		return 0, fmt.Errorf("journal: cell record needs exactly one of result and failure")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n, err := j.appendLocked(record{Cell: &rec})
	if err != nil {
		return 0, err
	}
	j.cells[rec.Key] = rec
	delete(j.ckpts, rec.Key)
	return n, nil
}

// AppendCheckpoint durably records an in-flight cell snapshot and returns
// the number of journal bytes written.
func (j *Journal) AppendCheckpoint(rec CheckpointRecord) (int, error) {
	if rec.Key == "" {
		return 0, fmt.Errorf("journal: checkpoint record without a key")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n, err := j.appendLocked(record{Ckpt: &rec})
	if err != nil {
		return 0, err
	}
	j.ckpts[rec.Key] = rec
	return n, nil
}

// Cell returns the journalled result for key, if the cell already finished
// in a previous run.
func (j *Journal) Cell(key string) (CellRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.cells[key]
	return rec, ok
}

// Checkpoint returns the latest in-flight snapshot for key, if one was
// journalled and the cell has not finished since.
func (j *Journal) Checkpoint(key string) (CheckpointRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.ckpts[key]
	return rec, ok
}

// CellCount returns the number of finished cells on record.
func (j *Journal) CellCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Close closes the active segment. Appended records are already durable;
// Close exists to release the file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.active == nil {
		return nil
	}
	if err := j.active.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// DigestFile returns the hex SHA-256 of a file's bytes — the trace-identity
// half of a cell key. Content digests make journal entries survive renames
// and reject silently swapped trace files.
func DigestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, cerr := io.Copy(h, f)
	if err := f.Close(); err != nil && cerr == nil {
		cerr = err
	}
	if cerr != nil {
		return "", fmt.Errorf("digesting %s: %w", path, cerr)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
