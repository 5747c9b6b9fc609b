package dist

import (
	"fmt"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/wire"
)

// BlobVersion is the shard blob's version byte. Bump it whenever the blob's
// layout changes; a coordinator then rejects blobs from stale worker builds
// instead of merging garbage. v2: fixed layouts on internal/wire (v1 was
// gob).
const BlobVersion = 2

// EncodeShard packs one shard's accumulator and dataset into the result
// frame's blob: the version byte, then the accumulator's layout, then the
// dataset's — so identical shard results are identical bytes on the wire.
func EncodeShard(acc *experiment.TrialAcc, data *core.Dataset) ([]byte, error) {
	if acc == nil || data == nil {
		return nil, fmt.Errorf("dist: encoding shard blob: nil accumulator or dataset")
	}
	return data.AppendTo(acc.AppendTo([]byte{BlobVersion})), nil
}

// DecodeShard unpacks a shard blob, rejecting version mismatches and
// malformed payloads loudly — a bad blob must abort the run, never fold
// into a silently wrong answer.
func DecodeShard(b []byte) (*experiment.TrialAcc, *core.Dataset, error) {
	r := wire.NewReader(b)
	r.Version("shard blob", BlobVersion)
	acc, data := new(experiment.TrialAcc), new(core.Dataset)
	acc.Decode(&r)
	data.Decode(&r)
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("dist: shard blob does not decode (coordinator/worker build mismatch?): %w", err)
	}
	return acc, data, nil
}
