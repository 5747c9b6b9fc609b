package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Save writes the network to w in gob format.
func (m *MLP) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("nn: encoding model: %w", err)
	}
	return nil
}

// Load reads a network in gob format from r: decode, then Pack, which
// rejects a structurally inconsistent model and re-homes the parameters into
// the contiguous slab layout, so loaded models serve exactly as fast as
// freshly constructed ones.
func Load(r io.Reader) (*MLP, error) {
	var m MLP
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if err := m.Pack(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ErrBadModel is wrapped by every error that rejects a decoded model's
// structure, here and in the packages whose model files hold nets.
var ErrBadModel = errors.New("malformed model")

// MaxWidth bounds every layer width a model may have. With both factors
// bounded, no size product below can overflow, and a decoded header cannot
// size a slab its own bytes do not pay for.
const MaxWidth = 1 << 12

// validate checks structural consistency of a deserialized model (Pack's
// first step).
func (m *MLP) validate() error {
	if len(m.Sizes) < 2 {
		return fmt.Errorf("nn: %w: %d layers, need at least 2", ErrBadModel, len(m.Sizes))
	}
	if len(m.W) != len(m.Sizes)-1 || len(m.B) != len(m.Sizes)-1 {
		return fmt.Errorf("nn: %w: %d weight layers, want %d", ErrBadModel, len(m.W), len(m.Sizes)-1)
	}
	for l, w := range m.Sizes {
		if w <= 0 || w > MaxWidth {
			return fmt.Errorf("nn: %w: layer %d width %d outside [1, %d]", ErrBadModel, l, w, MaxWidth)
		}
	}
	for l := range m.W {
		if len(m.W[l]) != m.Sizes[l]*m.Sizes[l+1] {
			return fmt.Errorf("nn: %w: layer %d weights have %d entries, want %d", ErrBadModel, l, len(m.W[l]), m.Sizes[l]*m.Sizes[l+1])
		}
		if len(m.B[l]) != m.Sizes[l+1] {
			return fmt.Errorf("nn: %w: layer %d biases have %d entries, want %d", ErrBadModel, l, len(m.B[l]), m.Sizes[l+1])
		}
	}
	return nil
}
