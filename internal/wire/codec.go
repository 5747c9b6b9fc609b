package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Append-style encoders of the fixed layouts. Integers are big-endian and
// floats travel as IEEE-754 bits, so every value round-trips bit-exactly —
// the byte-identity guarantees depend on it.

func AppendU16(b []byte, v uint16) []byte  { return binary.BigEndian.AppendUint16(b, v) }
func AppendU32(b []byte, v uint32) []byte  { return binary.BigEndian.AppendUint32(b, v) }
func AppendU64(b []byte, v uint64) []byte  { return binary.BigEndian.AppendUint64(b, v) }
func AppendI32(b []byte, v int) []byte     { return AppendU32(b, uint32(int32(v))) }
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendStr writes a u16 length and the string, truncated to what the
// length can say: a longer one (an error message quoting a hostile peer)
// would wrap the length and leave trailing garbage in the layout.
func AppendStr(b []byte, s string) []byte {
	s = s[:min(len(s), math.MaxUint16)]
	return append(AppendU16(b, uint16(len(s))), s...)
}

// AppendBytes writes a u32 count and the bytes.
func AppendBytes(b, v []byte) []byte { return append(AppendU32(b, uint32(len(v))), v...) }

// AppendF64s writes a u32 count and the floats.
func AppendF64s(b []byte, v []float64) []byte {
	b = AppendU32(b, uint32(len(v)))
	for _, f := range v {
		b = AppendF64(b, f)
	}
	return b
}

// A CountError reports a claimed element count that the bytes left cannot
// hold at Size bytes an element: a corrupt or hostile payload. Nothing was
// allocated for it.
type CountError struct {
	Count      uint32
	Size, Left int
}

func (e *CountError) Error() string {
	return fmt.Sprintf("wire: count %d of %d-byte elements overruns the %d bytes left", e.Count, e.Size, e.Left)
}

// A VersionError reports a layout version byte this build does not read.
type VersionError struct {
	What      string
	Got, Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: %s layout version %d, this build reads %d", e.What, e.Got, e.Want)
}

// A TrailingError reports bytes left after a complete layout, which must be
// consumed exactly.
type TrailingError struct{ N int }

func (e *TrailingError) Error() string { return fmt.Sprintf("wire: %d trailing bytes", e.N) }

// A Reader decodes a fixed layout sequentially. The first failure poisons
// it: later reads return zero values, and Err and Done report the failure.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Fail poisons r with err unless r already failed (or err is nil).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// zeros backs the fixed-width reads of a failed Reader.
var zeros [8]byte

// take returns the next n bytes. Once r has failed it returns zero bytes
// instead: n of them for a fixed-width read (n <= 8).
func (r *Reader) take(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
	}
	if r.err != nil {
		return zeros[:min(n, len(zeros))]
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *Reader) U8() uint8    { return r.take(1)[0] }
func (r *Reader) U16() uint16  { return binary.BigEndian.Uint16(r.take(2)) }
func (r *Reader) U32() uint32  { return binary.BigEndian.Uint32(r.take(4)) }
func (r *Reader) U64() uint64  { return binary.BigEndian.Uint64(r.take(8)) }
func (r *Reader) I32() int     { return int(int32(r.U32())) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads what AppendStr wrote.
func (r *Reader) Str() string {
	v := r.take(int(r.U16()))
	if r.err != nil {
		return ""
	}
	return string(v)
}

// Bytes reads what AppendBytes wrote, as a copy; an empty run is nil.
func (r *Reader) Bytes() []byte {
	v := r.take(r.Count(1))
	if r.err != nil || len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

// F64s reads what AppendF64s wrote; an empty series is nil.
func (r *Reader) F64s() []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = r.F64()
	}
	return v
}

// Version reads a layout's version byte and fails r with a *VersionError
// unless it is want.
func (r *Reader) Version(what string, want byte) {
	if got := r.U8(); r.err == nil && got != want {
		r.err = &VersionError{What: what, Got: got, Want: want}
	}
}

// Count reads a u32 element count and refuses it, with a *CountError, when
// the bytes left cannot hold that many elements of at least size bytes
// each. It is what keeps a claimed length from sizing an allocation:
// whatever a decoder makes for the count, the input has paid for.
func (r *Reader) Count(size int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.err = &CountError{Count: n, Size: size, Left: len(r.b)}
		return 0
	}
	return int(n)
}

// Done returns the first failure, or a *TrailingError when bytes are left.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		return &TrailingError{N: len(r.b)}
	}
	return r.err
}

// A Decoder reads its own fixed layout, failing r on bytes it refuses.
type Decoder interface{ Decode(r *Reader) }

// Decode reads b, which must hold exactly v's layout, into v.
func Decode(b []byte, v Decoder) error {
	r := NewReader(b)
	v.Decode(&r)
	return r.Done()
}
