package wire

import (
	"errors"
	"io"
	"math"
	"testing"
)

// TestReaderRoundTrip: every fixed-width value and run round-trips bit for
// bit, empty runs decode nil, and the layout is consumed exactly.
func TestReaderRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	b := AppendU16(nil, 0xbeef)
	b = AppendI32(b, -7)
	b = AppendF64(b, nan)
	b = AppendStr(b, "fugu")
	b = AppendBytes(b, []byte{1, 2})
	b = AppendBytes(b, nil)
	b = AppendF64s(b, []float64{0.5, math.Copysign(0, -1)})
	b = AppendF64s(b, []float64{})
	r := NewReader(append([]byte{3}, b...))
	r.Version("test", 3)
	if v := r.U16(); v != 0xbeef {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.I32(); v != -7 {
		t.Fatalf("I32 = %d", v)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(nan) {
		t.Fatalf("F64 = %#x, want the NaN's own bits", math.Float64bits(v))
	}
	if v := r.Str(); v != "fugu" {
		t.Fatalf("Str = %q", v)
	}
	if v := r.Bytes(); string(v) != "\x01\x02" {
		t.Fatalf("Bytes = %v", v)
	}
	if v := r.Bytes(); v != nil {
		t.Fatalf("an empty run decoded %v, want nil", v)
	}
	if v := r.F64s(); len(v) != 2 || v[0] != 0.5 || !math.Signbit(v[1]) {
		t.Fatalf("F64s = %v", v)
	}
	if v := r.F64s(); v != nil {
		t.Fatalf("an empty series decoded %v, want nil", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRefuses: each failure is typed, poisons the reader (later
// reads are zero) and is what Done reports.
func TestReaderRefuses(t *testing.T) {
	var count *CountError
	r := NewReader(AppendU32(nil, math.MaxUint32))
	if v := r.F64s(); v != nil || !errors.As(r.Done(), &count) || count.Count != math.MaxUint32 {
		t.Fatalf("a count past the end: %v, %v", v, r.Done())
	}
	var version *VersionError
	r = NewReader([]byte{2, 0, 0, 0, 9})
	if r.Version("test", 1); r.U32() != 0 || !errors.As(r.Done(), &version) || version.Got != 2 {
		t.Fatalf("a foreign version: %v", r.Done())
	}
	r = NewReader([]byte{0, 0, 0})
	if r.U32() != 0 || r.Str() != "" || !errors.Is(r.Done(), io.ErrUnexpectedEOF) {
		t.Fatalf("a short read: %v", r.Done())
	}
	var trailing *TrailingError
	r = NewReader([]byte{1, 2})
	if r.U8(); !errors.As(r.Done(), &trailing) || trailing.N != 1 {
		t.Fatalf("a trailing byte: %v", r.Done())
	}
}
