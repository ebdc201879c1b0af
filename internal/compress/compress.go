package compress

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"mbplib/internal/faults"
)

// Format identifies a compression container.
type Format int

// Supported formats.
const (
	FormatRaw Format = iota
	FormatGzip
	FormatMLZ
	FormatMLZS
)

// String returns the lower-case conventional name of the format.
func (f Format) String() string {
	switch f {
	case FormatRaw:
		return "raw"
	case FormatGzip:
		return "gzip"
	case FormatMLZ:
		return "mlz"
	case FormatMLZS:
		return "mlzs"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Detect sniffs the compression format from the first bytes of a stream.
func Detect(prefix []byte) Format {
	if len(prefix) >= 2 && prefix[0] == 0x1f && prefix[1] == 0x8b {
		return FormatGzip
	}
	if len(prefix) >= 4 && prefix[0] == 'M' && prefix[1] == 'L' && prefix[2] == 'Z' {
		switch prefix[3] {
		case '1':
			return FormatMLZ
		case 'S':
			return FormatMLZS
		}
	}
	return FormatRaw
}

// FormatForPath chooses a compression format from a file-name extension:
// ".gz" selects gzip, ".mlz" selects MLZ, anything else is raw.
func FormatForPath(path string) Format {
	switch {
	case strings.HasSuffix(path, ".gz"):
		return FormatGzip
	case strings.HasSuffix(path, ".mlzs"):
		return FormatMLZS
	case strings.HasSuffix(path, ".mlz"):
		return FormatMLZ
	default:
		return FormatRaw
	}
}

// NewReader wraps r with a decompressor chosen by sniffing the stream's
// magic bytes, so callers can open traces without knowing how (or whether)
// they were compressed. Raw streams pass through buffered.
func NewReader(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("compress: sniffing stream: %w", err)
	}
	switch Detect(prefix) {
	case FormatGzip:
		zr, err := gzip.NewReader(br)
		if err != nil {
			// The magic matched but the rest of the gzip header did not
			// parse: the stream is damaged, not merely unrecognized.
			return nil, fmt.Errorf("compress: opening gzip stream: %w: %w", err, faults.ErrCorrupt)
		}
		return zr, nil
	case FormatMLZ:
		return NewMLZReader(br)
	case FormatMLZS:
		return NewMLZSReader(br)
	default:
		return br, nil
	}
}

// nopWriteCloser adapts a plain Writer to WriteCloser for the raw format.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// NewWriter returns a WriteCloser that compresses into w using the given
// format. For gzip, LevelBest maps to gzip.BestCompression and LevelFast to
// gzip.BestSpeed. Closing the returned writer flushes the container but
// does not close w.
func NewWriter(w io.Writer, format Format, level Level) (io.WriteCloser, error) {
	switch format {
	case FormatRaw:
		return nopWriteCloser{w}, nil
	case FormatGzip:
		gl := gzip.BestSpeed
		if level == LevelBest {
			gl = gzip.BestCompression
		}
		zw, err := gzip.NewWriterLevel(w, gl)
		if err != nil {
			return nil, fmt.Errorf("compress: creating gzip writer: %w", err)
		}
		return zw, nil
	case FormatMLZ:
		return NewMLZWriter(w, level), nil
	case FormatMLZS:
		return NewMLZSWriter(w, MLZSOptions{Level: level}), nil
	default:
		return nil, fmt.Errorf("compress: unknown format %v", format)
	}
}

// File bundles an os.File with its (de)compression layer so both get closed
// together.
type File struct {
	io.Reader
	io.Writer
	closers []io.Closer
}

// Close closes the compression layer and then the underlying file.
func (f *File) Close() error {
	var first error
	for _, c := range f.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OpenFile opens path for reading with automatic decompression.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close() //mbpvet:ignore droppederr -- error path: the NewReader failure outranks a close failure on a read-only file
		return nil, err
	}
	cf := &File{Reader: r, closers: []io.Closer{f}}
	if c, ok := r.(io.Closer); ok {
		cf.closers = []io.Closer{c, f}
	}
	return cf, nil
}

// CreateFile creates path for writing, compressing according to the file
// extension (see FormatForPath) at the given level. Output is buffered.
func CreateFile(path string, level Level) (*File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	wc, err := NewWriter(bw, FormatForPath(path), level)
	if err != nil {
		f.Close() //mbpvet:ignore droppederr -- error path: nothing was written yet, the NewWriter failure is the one to report
		return nil, err
	}
	return &File{Writer: wc, closers: []io.Closer{wc, flushCloser{bw}, f}}, nil
}

// CreateMLZSFile creates path for writing as an MLZS container with
// explicit options (chunk size, alignment, parallel compression workers),
// for callers that need more than CreateFile's defaults. Output is buffered.
func CreateMLZSFile(path string, opts MLZSOptions) (*File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	wc := NewMLZSWriter(bw, opts)
	return &File{Writer: wc, closers: []io.Closer{wc, flushCloser{bw}, f}}, nil
}

// flushCloser flushes a bufio.Writer at Close time.
type flushCloser struct{ w *bufio.Writer }

func (f flushCloser) Close() error { return f.w.Flush() }
