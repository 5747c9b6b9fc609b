package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// The two callers' size caps: serve's and dist's maxFrame.
const (
	serveMax = 1 << 20
	distMax  = 256 << 20
)

func frame(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteFrame(&b, typ, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReadFrameLyingHeader: a header may claim up to max, but memory is
// committed only as bytes arrive. At dist's max, 200 MiB claimed and 3 bytes
// sent is a typed short-frame error that allocated next to nothing; at
// serve's max, four bytes claiming 1 MiB from a peer that has said nothing
// else reserve at most 64 KiB. A frame larger than the first reservation
// still round-trips.
func TestReadFrameLyingHeader(t *testing.T) {
	stream := append(binary.BigEndian.AppendUint32(nil, 200<<20), 6, 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := ReadFrame(bytes.NewReader(stream), nil, distMax)
	runtime.ReadMemStats(&after)
	var short *ShortFrameError
	if !errors.As(err, &short) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated 200 MiB frame: err = %v, want a ShortFrameError wrapping io.ErrUnexpectedEOF", err)
	}
	if short.Want != 200<<20 || short.Got != 4 {
		t.Fatalf("short frame reports %d of %d bytes, want 4 of %d", short.Got, short.Want, 200<<20)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("truncated 200 MiB frame allocated %d bytes, want < 1 MiB", grew)
	}

	hdr := binary.BigEndian.AppendUint32(nil, serveMax)
	_, _, next, err := ReadFrame(bytes.NewReader(hdr), nil, serveMax)
	if !errors.As(err, &short) {
		t.Fatalf("header-only 1 MiB claim: err = %v, want a ShortFrameError", err)
	}
	if cap(next) > 64<<10 {
		t.Fatalf("header-only 1 MiB claim reserved %d bytes, want <= 64 KiB", cap(next))
	}

	big := bytes.Repeat([]byte{0xa5}, 300<<10)
	typ, payload, _, err := ReadFrame(bytes.NewReader(frame(t, 6, big)), nil, serveMax)
	if err != nil || typ != 6 || !bytes.Equal(payload, big) {
		t.Fatalf("300 KiB frame did not round-trip (type %d, %d bytes, err %v)", typ, len(payload), err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	one := frame(t, 1, []byte("abc"))
	var size *FrameSizeError
	for _, claimed := range []uint32{0, serveMax + 1, 0xffffffff} {
		hdr := binary.BigEndian.AppendUint32(nil, claimed)
		_, _, _, err := ReadFrame(bytes.NewReader(append(hdr, 0)), nil, serveMax)
		if !errors.As(err, &size) || size.Claimed != claimed || size.Max != serveMax {
			t.Fatalf("length %d: err = %v, want FrameSizeError{%d, %d}", claimed, err, claimed, serveMax)
		}
	}

	// io.EOF only on a frame boundary: before the first frame and after a
	// whole one, never inside a header.
	r := bytes.NewReader(one)
	if _, _, _, err := ReadFrame(r, nil, serveMax); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrame(r, nil, serveMax); err != io.EOF {
		t.Fatalf("after a whole frame: err = %v, want io.EOF", err)
	}
	var short *ShortFrameError
	if _, _, _, err := ReadFrame(bytes.NewReader(one[:2]), nil, serveMax); !errors.As(err, &short) {
		t.Fatalf("half a header: err = %v, want a ShortFrameError", err)
	}

	// The reader's own failure (a deadline, a reset) is not a short frame.
	for _, r := range []io.Reader{
		iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(one))),
		io.MultiReader(bytes.NewReader(one[:6]), iotest.ErrReader(iotest.ErrTimeout)),
	} {
		if _, _, _, err := ReadFrame(r, nil, serveMax); err != iotest.ErrTimeout {
			t.Fatalf("reader failure: err = %v, want it passed through unchanged", err)
		}
	}
}

// TestReadFrameSplitEveryOffset: however the transport cuts a frame in two
// it decodes the same, and a stream that ends at the cut is io.EOF at
// offset 0 and a short frame anywhere else.
func TestReadFrameSplitEveryOffset(t *testing.T) {
	payload := []byte("split me anywhere")
	data := frame(t, 3, payload)
	for k := 0; k <= len(data); k++ {
		r := io.MultiReader(bytes.NewReader(data[:k]), bytes.NewReader(data[k:]))
		typ, got, _, err := ReadFrame(r, nil, serveMax)
		if err != nil || typ != 3 || !bytes.Equal(got, payload) {
			t.Fatalf("split at %d: type %d payload %q err %v", k, typ, got, err)
		}
		if k == len(data) {
			break
		}
		_, _, _, err = ReadFrame(bytes.NewReader(data[:k]), nil, serveMax)
		var short *ShortFrameError
		if k == 0 && err != io.EOF || k > 0 && !errors.As(err, &short) {
			t.Fatalf("truncated at %d: err = %v", k, err)
		}
	}
}

// TestReadFrameReusedBufferNoAlloc pins the serve decide loop's contract: a
// frame that fits the buffer the previous call returned costs no allocation.
func TestReadFrameReusedBufferNoAlloc(t *testing.T) {
	data := frame(t, 3, bytes.Repeat([]byte{7}, 2000))
	r := bytes.NewReader(data)
	_, _, buf, err := ReadFrame(r, nil, serveMax)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(data)
		if _, _, buf, err = ReadFrame(r, buf, serveMax); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame into a fitting buffer made %v allocations, want 0", allocs)
	}
}

// FuzzReadFrame: any byte stream decodes to a run of frames that re-encode
// to exactly the bytes consumed, ending in io.EOF on a boundary or a typed
// error — never a panic, and never a buffer out of proportion to the input
// (the first reservation is growStep, later ones at most double what has
// arrived).
func FuzzReadFrame(f *testing.F) {
	whole := frame(f, 1, []byte("abc"))
	for k := 1; k < len(whole); k++ {
		f.Add(whole[:k])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		var echo bytes.Buffer
		for {
			typ, payload, next, err := ReadFrame(r, buf, serveMax)
			if cap(next) > 2*len(data)+growStep {
				t.Fatalf("%d input bytes grew the buffer to %d", len(data), cap(next))
			}
			buf = next
			if err == nil {
				if err := WriteFrame(&echo, typ, payload); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var size *FrameSizeError
			var short *ShortFrameError
			switch {
			case err == io.EOF:
				if !bytes.Equal(echo.Bytes(), data) {
					t.Fatalf("clean EOF but frames re-encode to %d bytes of %d", echo.Len(), len(data))
				}
			case errors.As(err, &short):
				if r.Len() != 0 || short.Got >= short.Want {
					t.Fatalf("%v with %d bytes unread", err, r.Len())
				}
			case errors.As(err, &size):
				if size.Claimed != 0 && size.Claimed <= serveMax {
					t.Fatalf("in-range length rejected: %v", err)
				}
			default:
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if !bytes.HasPrefix(data, echo.Bytes()) {
				t.Fatal("decoded frames are not a prefix of the input")
			}
			return
		}
	})
}
