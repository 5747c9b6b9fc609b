package core

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"puffer/internal/tcpsim"
	"puffer/internal/wire"
)

func sampleDataset() *Dataset {
	return &Dataset{Streams: []StreamObs{
		{Chunks: []ChunkObs{
			{Size: 3.5e5, TransTime: 0.41, Day: 2,
				Info: tcpsim.Info{CWND: 40, InFlight: 12, MinRTT: 0.031, RTT: 0.044, DeliveryRate: 6.2e6}},
			{Size: 5.1e5, TransTime: 0.77, Day: 2,
				Info: tcpsim.Info{CWND: 44, InFlight: 9, MinRTT: 0.031, RTT: 0.048, DeliveryRate: 5.4e6}},
		}},
		{Chunks: []ChunkObs{
			{Size: 1.2e5, TransTime: 0.12, Day: 3,
				Info: tcpsim.Info{CWND: 18, InFlight: 3, MinRTT: 0.012, RTT: 0.013, DeliveryRate: 9.9e6}},
		}},
	}}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	d := sampleDataset()
	back := new(Dataset)
	if err := wire.Decode(d.AppendTo(nil), back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip altered dataset:\n%+v\nvs\n%+v", d, back)
	}
	for _, empty := range []*Dataset{{}, {Streams: []StreamObs{{}}}} {
		if err := wire.Decode(empty.AppendTo(nil), back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(empty, back) {
			t.Fatalf("round trip of %+v gave %+v: an empty series must decode nil", empty, back)
		}
	}
}

func TestDatasetFileRoundTrip(t *testing.T) {
	d := sampleDataset()
	path := filepath.Join(t.TempDir(), "telemetry.bin")
	if err := wire.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(d.AppendTo(nil))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Dataset)
	if err := wire.Decode(blob, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatal("file round trip altered dataset")
	}
	if back.MaxDay() != 3 || back.NumChunks() != 3 {
		t.Fatalf("reloaded dataset summary wrong: day %d, chunks %d", back.MaxDay(), back.NumChunks())
	}
}
