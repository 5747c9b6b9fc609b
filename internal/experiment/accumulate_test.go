package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"puffer/internal/stats"
	"puffer/internal/wire"
)

// codecAcc is a small multi-scheme accumulator with every field populated,
// so the wire form covers the whole struct.
func codecAcc() *TrialAcc {
	acc := NewTrialAcc(AllPaths)
	for i, name := range []string{"Fugu", "BBA", "MPC-HM", "RobustMPC-HM", "Pensieve", "Fugu-Feb"} {
		a := acc.scheme(name)
		a.Sessions = i + 1
		a.Streams = 2 * (i + 1)
		a.Considered = i
		a.Points.Add(stats.StreamPoint{Watch: float64(10 * (i + 1)), Stall: float64(i)})
		a.SSIM.Add(14+float64(i), float64(10*(i+1)))
		a.VarSum, a.VarN = float64(i), i
	}
	return acc
}

// TestTrialAccGobDeterministic: encoding the same accumulator state must
// always produce the same bytes — checkpointed acc.bin files are part of
// the byte-reproducibility contract, and walking the map would order
// schemes randomly per run.
func TestTrialAccGobDeterministic(t *testing.T) {
	first := codecAcc().AppendTo(nil)
	for i := 0; i < 50; i++ {
		if !bytes.Equal(first, codecAcc().AppendTo(nil)) {
			t.Fatalf("encoding %d differs from the first encoding", i)
		}
	}
}

// TestTrialAccGobRoundTrip: the layout round-trips the whole accumulator,
// empty series decoding nil; bytes that name schemes out of name order,
// or twice, are refused.
func TestTrialAccGobRoundTrip(t *testing.T) {
	acc := codecAcc()
	got := NewTrialAcc(SlowPaths) // decode must overwrite the filter too
	if err := wire.Decode(acc.AppendTo(nil), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(acc, got) {
		t.Fatalf("round trip changed the accumulator:\nwant %s\ngot  %s",
			fmt.Sprintf("%+v", acc), fmt.Sprintf("%+v", got))
	}
	empty := NewTrialAcc(AllPaths)
	empty.scheme("")
	if err := wire.Decode(empty.AppendTo(nil), got); err != nil || !reflect.DeepEqual(empty, got) {
		t.Fatalf("an empty scheme round-tripped to %+v (%v)", got.Schemes[""], err)
	}
	twice := []byte{accVersion, byte(AllPaths), 0, 0, 0, 2}
	twice = acc.Schemes["BBA"].appendTo(acc.Schemes["BBA"].appendTo(twice))
	if err := wire.Decode(twice, got); err == nil {
		t.Fatal("a scheme named twice decoded")
	}
}
