// Package wire implements the Open Agora message codec: a compact,
// versioned, CRC-checked binary framing used by the real TCP transport and
// by any component that needs a stable byte representation of agora
// messages (persistence, digests).
//
// Encoding rules: little-endian fixed-width integers, float64 as IEEE-754
// bits, strings and byte slices length-prefixed with uvarint, slices
// count-prefixed with uvarint. The codec is hand-rolled rather than gob so
// the format is stable across Go versions and language-independent.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoding errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrTooLarge    = errors.New("wire: length exceeds limit")
	ErrChecksum    = errors.New("wire: checksum mismatch")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrVersion     = errors.New("wire: unsupported version")
)

// MaxBlob bounds any single string/byte field to keep a corrupt length
// prefix from allocating unbounded memory.
const MaxBlob = 16 << 20

// Writer serializes primitives into a growing buffer. It is the package's
// only primitive encoder: the AppendTo marshals run a stack Writer over the
// caller's buffer, NewWriter starts one on a fresh buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the buffer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U8 writes a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 writes a fixed 32-bit little-endian integer.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 writes a fixed 64-bit little-endian integer.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 writes a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// F64 writes a float64 as IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob writes a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// F64s writes a count-prefixed float64 slice.
func (w *Writer) F64s(v []float64) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}

// U64s writes a count-prefixed fixed-width uint64 slice.
func (w *Writer) U64s(v []uint64) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.U64(x)
	}
}

// Strings writes a count-prefixed string slice.
func (w *Writer) Strings(v []string) {
	w.Uvarint(uint64(len(v)))
	for _, s := range v {
		w.String(s)
	}
}

// Reader deserializes primitives from a byte slice. Errors are sticky: after
// the first failure every subsequent read returns the zero value, and Err
// reports the first error, so decode functions can read a whole struct and
// check once.
type Reader struct {
	buf []byte
	off int
	err error
	// shared backing for String: when set, every String() slices str
	// instead of allocating its own copy (see NewSharedReader).
	str    string
	shared bool
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// NewSharedReader returns a reader whose String() results all share ONE
// backing allocation: the whole payload is copied into a string up front
// and fields are sliced out of it, so a message with a dozen string
// fields decodes with one allocation instead of twelve. The returned
// strings are independent of buf (safe when buf is a pooled FrameReader
// payload) but keep the whole payload copy alive as long as any field is
// retained — right for hot streaming decodes, wrong for long-lived
// retention of one tiny field from a huge frame.
func NewSharedReader(buf []byte) *Reader {
	return &Reader{buf: buf, str: string(buf), shared: true}
}

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed 32-bit integer.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 64-bit integer.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	r.off += n
	return v
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed string. Under NewSharedReader the result
// slices the reader's shared backing instead of allocating.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > MaxBlob {
		r.fail(fmt.Errorf("%w: string %d", ErrTooLarge, n))
		return ""
	}
	start := r.off
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	if r.shared {
		return r.str[start : start+int(n)]
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice (copied).
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if n > MaxBlob {
		r.fail(fmt.Errorf("%w: blob %d", ErrTooLarge, n))
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// F64s reads a count-prefixed float64 slice.
func (r *Reader) F64s() []float64 {
	n := r.Uvarint()
	if n > MaxBlob/8 {
		r.fail(fmt.Errorf("%w: f64s %d", ErrTooLarge, n))
		return nil
	}
	if n > uint64(r.Remaining()/8) {
		r.fail(ErrShortBuffer)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// U64s reads a count-prefixed fixed-width uint64 slice.
func (r *Reader) U64s() []uint64 {
	n := r.Uvarint()
	if n > MaxBlob/8 {
		r.fail(fmt.Errorf("%w: u64s %d", ErrTooLarge, n))
		return nil
	}
	if n > uint64(r.Remaining()/8) {
		r.fail(ErrShortBuffer)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// U64sInto is U64s into dst's backing array (grown when too small), for a
// caller that decodes message after message into slices it keeps. The count
// is held against the bytes that remain before anything grows.
func (r *Reader) U64sInto(dst []uint64) []uint64 {
	dst = dst[:0]
	for n := r.count(8); n > 0 && r.err == nil; n-- {
		dst = append(dst, r.U64())
	}
	return dst
}

// F64sInto is F64s into dst's backing array; see U64sInto.
func (r *Reader) F64sInto(dst []float64) []float64 {
	dst = dst[:0]
	for n := r.count(8); n > 0 && r.err == nil; n-- {
		dst = append(dst, r.F64())
	}
	return dst
}

// count reads a slice's element count and fails the read when that many
// elements of width bytes each cannot remain.
func (r *Reader) count(width int) uint64 {
	n := r.Uvarint()
	if n > uint64(r.Remaining()/width) {
		r.fail(ErrShortBuffer)
		return 0
	}
	return n
}

// Strings reads a count-prefixed string slice.
func (r *Reader) Strings() []string {
	n := r.Uvarint()
	if n > MaxBlob {
		r.fail(fmt.Errorf("%w: strings %d", ErrTooLarge, n))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, min(int(n), 4096))
	for i := uint64(0); i < n; i++ {
		out = append(out, r.String())
		if r.err != nil {
			return nil
		}
	}
	return out
}
