package core

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Dataset serialization: the continual-experiment runner checkpoints each
// day's telemetry so a killed run can rebuild its sliding training window on
// resume. Gob preserves float64 bit patterns exactly, so a reloaded dataset
// trains byte-identically to the original.

// Save writes the dataset in gob format.
func (d *Dataset) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(d); err != nil {
		return fmt.Errorf("core: encoding dataset: %w", err)
	}
	return nil
}

// LoadDataset reads a dataset written by Save.
func LoadDataset(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: decoding dataset: %w", err)
	}
	return &d, nil
}
