// Package cachefile implements the on-disk container format of the
// persistent solve cache: a small self-describing binary file holding one
// content-addressed payload, hardened against every way a cache directory
// rots in practice.
//
// Layout (all fixed-width fields little-endian):
//
//	offset  size  field
//	0       4     magic "AFC1"
//	4       8     schema hash (spec-set + payload version + format generation)
//	12      8     fingerprint hi
//	20      8     fingerprint lo
//	28      8     payload length
//	36      n     payload (varint-encoded by the caller)
//	36+n    8     FNV-1a 64 checksum of bytes [0, 36+n)
//
// Every reader-side failure — short file, wrong magic, foreign schema,
// mismatched fingerprint, bad length, checksum mismatch — returns an error
// and never a partial payload: the caller degrades to a cold solve. Writers
// go through WriteAtomic (unique temp file + rename), so concurrent writers
// sharing one directory race only on which identical bytes win, and readers
// never observe a half-written entry under POSIX rename semantics.
package cachefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Magic identifies the file format ("ArrayFlow Cache").
const Magic = "AFC1"

const headerSize = 4 + 8 + 8 + 8 + 8
const checksumSize = 8

// Error sentinels. All decode failures wrap one of these so callers can
// distinguish "not a cache file / stale format" from "corrupted entry" when
// deciding what to count, while treating both as a cold solve.
var (
	ErrFormat   = errors.New("cachefile: not a cache file or stale format")
	ErrCorrupt  = errors.New("cachefile: corrupted entry")
	ErrMismatch = errors.New("cachefile: fingerprint mismatch")
)

// fnv1a64 is the FNV-1a 64-bit hash of data (inlined so the package has no
// dependencies beyond the standard library's binary encoding).
func fnv1a64(seed uint64, data []byte) uint64 {
	const prime = 1099511628211
	h := seed
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

const fnvOffset64 = 14695981039346656037

// SchemaHash folds the given components (format generation, payload
// version, spec names, …) into the 8-byte schema identifier stored in every
// file header.
// Files written under a different schema are ignored wholesale.
func SchemaHash(parts ...string) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		h = fnv1a64(h, []byte(p))
		h = fnv1a64(h, []byte{0})
	}
	return h
}

// Encode frames payload into a checksummed file image for the given schema
// and 128-bit content fingerprint.
func Encode(schema, fpHi, fpLo uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload)+checksumSize)
	copy(buf, Magic)
	binary.LittleEndian.PutUint64(buf[4:], schema)
	binary.LittleEndian.PutUint64(buf[12:], fpHi)
	binary.LittleEndian.PutUint64(buf[20:], fpLo)
	binary.LittleEndian.PutUint64(buf[28:], uint64(len(payload)))
	copy(buf[headerSize:], payload)
	sum := fnv1a64(fnvOffset64, buf[:headerSize+len(payload)])
	binary.LittleEndian.PutUint64(buf[headerSize+len(payload):], sum)
	return buf
}

// Decode validates a file image against the expected schema and fingerprint
// and returns its payload. The returned slice aliases data.
func Decode(data []byte, schema, fpHi, fpLo uint64) ([]byte, error) {
	if len(data) < headerSize+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed frame", ErrCorrupt, len(data))
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:4])
	}
	if got := binary.LittleEndian.Uint64(data[4:]); got != schema {
		return nil, fmt.Errorf("%w: schema %016x, want %016x", ErrFormat, got, schema)
	}
	gotHi := binary.LittleEndian.Uint64(data[12:])
	gotLo := binary.LittleEndian.Uint64(data[20:])
	if gotHi != fpHi || gotLo != fpLo {
		return nil, fmt.Errorf("%w: %016x%016x, want %016x%016x", ErrMismatch, gotHi, gotLo, fpHi, fpLo)
	}
	n := binary.LittleEndian.Uint64(data[28:])
	if n != uint64(len(data)-headerSize-checksumSize) {
		return nil, fmt.Errorf("%w: payload length %d in a %d-byte file", ErrCorrupt, n, len(data))
	}
	want := binary.LittleEndian.Uint64(data[len(data)-checksumSize:])
	if got := fnv1a64(fnvOffset64, data[:len(data)-checksumSize]); got != want {
		return nil, fmt.Errorf("%w: checksum %016x, want %016x", ErrCorrupt, got, want)
	}
	return data[headerSize : len(data)-checksumSize], nil
}

// WriteAtomic writes data to path so that concurrent readers and writers
// never observe a partial file: the bytes go to a uniquely-named temp file
// in the same directory, then rename into place. A lost race (two processes
// storing the same entry) leaves whichever identical image renamed last.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// --- Varint payload encoding -----------------------------------------------

// Writer builds a varint-framed payload. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Uint appends an unsigned varint.
func (w *Writer) Uint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends a signed (zigzag) varint.
func (w *Writer) Int(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Bool appends a boolean as one varint.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint(1)
	} else {
		w.Uint(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte block. Blocks let a reader skip over
// a section it wants to defer (the lazy-restore path of the solve cache)
// without parsing the varints inside it.
func (w *Writer) Blob(b []byte) {
	w.Uint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes a varint-framed payload. Every read reports truncation or
// malformed varints through Err; reads after an error return zero values, so
// decoders can read a whole structure and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for reading.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated or malformed %s at offset %d", ErrCorrupt, what, r.off)
	}
}

// Uint reads an unsigned varint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed (zigzag) varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Uint() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Blob reads a length-prefixed byte block. The returned slice aliases the
// payload (which aliases the file image), so it stays valid as long as the
// payload does and must not be mutated.
func (r *Reader) Blob() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("blob")
		return nil
	}
	b := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

// Done reports whether the whole payload has been consumed without error.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.buf) }
