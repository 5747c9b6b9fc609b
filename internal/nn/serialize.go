package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
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

// SaveFile writes the network to the named file.
func (m *MLP) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("nn: writing model file: %w", err)
	}
	return nil
}

// validate checks structural consistency of a deserialized model (Pack's
// first step).
func (m *MLP) validate() error {
	if len(m.Sizes) < 2 {
		return fmt.Errorf("nn: model has %d layers, need at least 2", len(m.Sizes))
	}
	if len(m.W) != len(m.Sizes)-1 || len(m.B) != len(m.Sizes)-1 {
		return fmt.Errorf("nn: model has %d weight layers, want %d", len(m.W), len(m.Sizes)-1)
	}
	for l := 0; l < len(m.Sizes)-1; l++ {
		if m.Sizes[l] <= 0 || m.Sizes[l+1] <= 0 {
			return fmt.Errorf("nn: model layer %d has non-positive size", l)
		}
		if len(m.W[l]) != m.Sizes[l]*m.Sizes[l+1] {
			return fmt.Errorf("nn: layer %d weights have %d entries, want %d", l, len(m.W[l]), m.Sizes[l]*m.Sizes[l+1])
		}
		if len(m.B[l]) != m.Sizes[l+1] {
			return fmt.Errorf("nn: layer %d biases have %d entries, want %d", l, len(m.B[l]), m.Sizes[l+1])
		}
	}
	return nil
}
