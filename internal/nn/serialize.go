package nn

import (
	"errors"
	"fmt"

	"puffer/internal/wire"
)

// ErrBadModel is wrapped by every error that rejects a decoded model's
// structure, here and in the packages whose model files hold nets.
var ErrBadModel = errors.New("malformed model")

// MaxWidth bounds every layer width a model may have. With both factors
// bounded, no size product below can overflow, and a decoded header cannot
// size a slab its own bytes do not pay for.
const MaxWidth = 1 << 12

// AppendTo appends the network's fixed layout to b: the layer widths (a u32
// count, then each as a u32), then the parameter slab as it sits in memory
// (W[0] B[0] W[1] B[1] ..., a u32 count and the float bits).
func (m *MLP) AppendTo(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(m.Sizes)))
	for _, w := range m.Sizes {
		b = wire.AppendU32(b, uint32(w))
	}
	return wire.AppendF64s(b, m.flat)
}

// Decode reads a network AppendTo wrote into m, which must be new. Widths
// outside [1, MaxWidth], fewer than two of them, or a slab whose length the
// widths do not give fail r with an error wrapping ErrBadModel; the slab is
// allocated only after its count has been checked against the bytes left.
func (m *MLP) Decode(r *wire.Reader) {
	sizes := make([]int, r.Count(4))
	total := 0
	for l := range sizes {
		sizes[l] = int(r.U32())
		if w := sizes[l]; r.Err() == nil && (w <= 0 || w > MaxWidth) {
			r.Fail(fmt.Errorf("nn: %w: layer %d width %d outside [1, %d]", ErrBadModel, l, w, MaxWidth))
		}
		if l > 0 {
			total += sizes[l]*sizes[l-1] + sizes[l]
		}
	}
	if r.Err() == nil && len(sizes) < 2 {
		r.Fail(fmt.Errorf("nn: %w: %d layers, need at least 2", ErrBadModel, len(sizes)))
	}
	flat := r.F64s()
	if r.Err() == nil && len(flat) != total {
		r.Fail(fmt.Errorf("nn: %w: %d parameters, the widths %v give %d", ErrBadModel, len(flat), sizes, total))
	}
	if r.Err() == nil {
		m.Sizes, m.flat = sizes, flat
		m.W, m.B = m.layerViews(flat)
	}
}
