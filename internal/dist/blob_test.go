package dist

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/wire"
)

// shardResult folds one shard of the given test trial and returns its
// accumulator plus the dataset its sessions recorded.
func shardResult(t testing.TB, sp testSpec, day, shard int) (*experiment.TrialAcc, *core.Dataset) {
	t.Helper()
	trial := testTrial(sp, day, nil)
	col := experiment.NewDatasetCollector()
	trial.Recorder = col
	lo, hi := experiment.ShardRange(sp.Sessions, sp.ShardSize, shard)
	acc := trial.FoldShard(lo, hi, experiment.AllPaths)
	return acc, col.Dataset()
}

// TestShardBlobRoundTrip: a shard's accumulator and dataset survive the
// encode/decode hop byte for byte.
func TestShardBlobRoundTrip(t *testing.T) {
	sp := testSpec{Sessions: 16, ShardSize: 8, BaseSeed: 11}
	acc, data := shardResult(t, sp, 0, 0)
	blob, err := EncodeShard(acc, data)
	if err != nil {
		t.Fatal(err)
	}
	gotAcc, gotData, err := DecodeShard(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotAcc.AppendTo(nil), acc.AppendTo(nil)) {
		t.Error("accumulator changed across the encode/decode hop")
	}
	if !bytes.Equal(gotData.AppendTo(nil), data.AppendTo(nil)) {
		t.Error("dataset changed across the encode/decode hop")
	}
}

// TestShardBlobDeterministic: the same shard result is the same bytes on
// the wire, the property the coordinator's byte-identity contract rests on.
func TestShardBlobDeterministic(t *testing.T) {
	sp := testSpec{Sessions: 16, ShardSize: 8, BaseSeed: 11}
	acc1, data1 := shardResult(t, sp, 0, 1)
	acc2, data2 := shardResult(t, sp, 0, 1)
	b1, err := EncodeShard(acc1, data1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeShard(acc2, data2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("re-computing the same shard produced different wire bytes")
	}
}

// TestWireMergeMatchesFoldShards: shipping each shard through the blob
// encoding and merging the decoded accumulators in shard order equals the
// single-process FoldShards canonical aggregate.
func TestWireMergeMatchesFoldShards(t *testing.T) {
	sp := testSpec{Sessions: 40, ShardSize: 8, BaseSeed: 13}
	merged := experiment.NewTrialAcc(experiment.AllPaths)
	var streams *core.Dataset
	for s := 0; s < experiment.NumShards(sp.Sessions, sp.ShardSize); s++ {
		acc, data := shardResult(t, sp, 0, s)
		blob, err := EncodeShard(acc, data)
		if err != nil {
			t.Fatal(err)
		}
		gotAcc, gotData, err := DecodeShard(blob)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(gotAcc)
		if streams == nil {
			streams = gotData
		} else {
			streams.Streams = append(streams.Streams, gotData.Streams...)
		}
	}

	trial := testTrial(sp, 0, nil)
	col := experiment.NewDatasetCollector()
	trial.Recorder = col
	want := experiment.FoldShards(sp.Sessions, sp.ShardSize, func(id int) *experiment.SessionResult {
		r := trial.RunOne(id)
		return &r
	})
	if !bytes.Equal(merged.AppendTo(nil), want.AppendTo(nil)) {
		t.Error("wire-merged accumulator differs from FoldShards")
	}
	if !bytes.Equal(streams.AppendTo(nil), col.Dataset().AppendTo(nil)) {
		t.Error("wire-concatenated dataset differs from the global collector")
	}
}

func TestEncodeShardRejectsNil(t *testing.T) {
	sp := testSpec{Sessions: 8, ShardSize: 8, BaseSeed: 11}
	acc, data := shardResult(t, sp, 0, 0)
	if _, err := EncodeShard(nil, data); err == nil {
		t.Error("EncodeShard(nil, data): no error")
	}
	if _, err := EncodeShard(acc, nil); err == nil {
		t.Error("EncodeShard(acc, nil): no error")
	}
}

// TestDecodeShardRejectsGarbage: a payload that is not a shard blob must
// fail loudly, pointing at a build mismatch.
func TestDecodeShardRejectsGarbage(t *testing.T) {
	_, _, err := DecodeShard([]byte("not a shard blob at all"))
	if err == nil || !strings.Contains(err.Error(), "build mismatch") {
		t.Fatalf("DecodeShard(garbage) = %v, want build-mismatch error", err)
	}
}

// TestDecodeShardRejectsVersion: a well-formed blob from a different
// envelope version is rejected, not merged.
func TestDecodeShardRejectsVersion(t *testing.T) {
	sp := testSpec{Sessions: 8, ShardSize: 8, BaseSeed: 11}
	blob, err := EncodeShard(shardResult(t, sp, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	blob[0] = BlobVersion + 1
	_, _, err = DecodeShard(blob)
	var v *wire.VersionError
	if !errors.As(err, &v) {
		t.Fatalf("DecodeShard(version+1) = %v, want *wire.VersionError", err)
	}
}

// TestDecodeShardRejectsMissingFields: a blob with the right version but
// without the accumulator or the dataset is rejected.
func TestDecodeShardRejectsMissingFields(t *testing.T) {
	sp := testSpec{Sessions: 8, ShardSize: 8, BaseSeed: 11}
	acc, data := shardResult(t, sp, 0, 0)
	for name, blob := range map[string][]byte{
		"no-acc":  data.AppendTo([]byte{BlobVersion}),
		"no-data": acc.AppendTo([]byte{BlobVersion}),
	} {
		if _, _, err := DecodeShard(blob); err == nil {
			t.Errorf("%s: DecodeShard accepted a blob with a missing field", name)
		}
	}
}

// FuzzDecodeShard: any blob either fails to decode, with an error, or
// decodes to an accumulator and dataset that re-encode to the same bytes.
func FuzzDecodeShard(f *testing.F) {
	acc, data := shardResult(f, testSpec{Sessions: 2, ShardSize: 2, BaseSeed: 11}, 0, 0)
	data.Streams = data.Streams[:1] // a small seed mutates fast
	data.Streams[0].Chunks = data.Streams[0].Chunks[:3]
	blob, err := EncodeShard(acc, data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, b []byte) {
		acc, data, err := DecodeShard(b)
		if err != nil {
			return
		}
		if got, _ := EncodeShard(acc, data); !bytes.Equal(got, b) {
			t.Fatalf("blob %x re-encodes as %x", b, got)
		}
	})
}
