package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// growStep is the most a frame may reserve beyond the bytes received for it
// until it has sent that much itself; from there the buffer doubles.
const growStep = 64 << 10

// A FrameSizeError reports a length prefix of zero or above the reader's
// max: a corrupt stream or a hostile peer. Nothing was allocated for it.
type FrameSizeError struct {
	Claimed uint32
	Max     int
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame length %d out of range [1, %d] (corrupt stream?)", e.Claimed, e.Max)
}

// A ShortFrameError reports a stream that ended inside a frame, Got bytes
// into the Want-byte part being read (the 4-byte length prefix or the body
// it announced). It unwraps to io.ErrUnexpectedEOF.
type ShortFrameError struct {
	Want, Got int
}

func (e *ShortFrameError) Error() string {
	return fmt.Sprintf("wire: short frame: stream ended after %d of %d bytes", e.Got, e.Want)
}

func (e *ShortFrameError) Unwrap() error { return io.ErrUnexpectedEOF }

func short(err error, want, got int) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return &ShortFrameError{Want: want, Got: got}
	}
	return err
}

// WriteFrame emits one frame: u32 big-endian length (covering the type
// byte), the type byte, the payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame of at most maxLen bytes (type byte included)
// into buf, returning the type, the payload (aliasing next) and the buffer
// to pass to the following call. A buf that already fits the frame is read
// into directly, header included, so a steady-state loop allocates nothing;
// a larger claim grows with the bytes received — at most growStep, then
// double what has arrived — so a lying header reserves next to nothing.
// The error is io.EOF only when the stream ends on a frame boundary,
// *ShortFrameError when it ends anywhere else, *FrameSizeError for a length
// outside [1, maxLen], and the reader's own error otherwise.
func ReadFrame(r io.Reader, buf []byte, maxLen int) (typ byte, payload, next []byte, err error) {
	if cap(buf) < 4 {
		buf = make([]byte, 512)
	}
	hdr := buf[:4]
	if got, err := io.ReadFull(r, hdr); err != nil {
		if got > 0 {
			err = short(err, len(hdr), got)
		}
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || uint64(n) > uint64(maxLen) {
		return 0, nil, buf, &FrameSizeError{Claimed: n, Max: maxLen}
	}
	want := int(n)
	buf = buf[:0]
	for len(buf) < want {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(want, len(buf)+max(len(buf), growStep)))
			copy(grown, buf)
			buf = grown
		}
		got, err := io.ReadFull(r, buf[len(buf):min(want, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			return 0, nil, buf, short(err, want, len(buf))
		}
	}
	return buf[0], buf[1:], buf, nil
}
