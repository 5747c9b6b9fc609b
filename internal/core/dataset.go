package core

import "puffer/internal/wire"

// datasetVersion is the version byte of Dataset's layout: a day's telemetry
// in checkpoints (so a resumed run rebuilds its training window) and in dist
// shard blobs. Floats travel as their bits, so a reloaded dataset trains
// byte-identically to the original.
const datasetVersion = 1

// chunkLayout is the bytes one ChunkObs takes: seven floats and the day.
const chunkLayout = 7*8 + 4

// AppendTo appends the dataset's fixed layout: the version byte, a u32
// stream count, and per stream a u32 chunk count and each chunk's fields.
func (d *Dataset) AppendTo(b []byte) []byte {
	b = wire.AppendU32(append(b, datasetVersion), uint32(len(d.Streams)))
	for _, s := range d.Streams {
		b = wire.AppendU32(b, uint32(len(s.Chunks)))
		for i := range s.Chunks {
			for _, v := range s.Chunks[i].floats() {
				b = wire.AppendF64(b, *v)
			}
			b = wire.AppendI32(b, s.Chunks[i].Day)
		}
	}
	return b
}

// Decode reads what AppendTo wrote into d; no streams, or no chunks in a
// stream, decode as nil.
func (d *Dataset) Decode(r *wire.Reader) {
	r.Version("dataset", datasetVersion)
	d.Streams = nil
	if n := r.Count(4); n > 0 {
		d.Streams = make([]StreamObs, n)
	}
	for i := range d.Streams {
		if n := r.Count(chunkLayout); n > 0 {
			d.Streams[i].Chunks = make([]ChunkObs, n)
		}
		for j := range d.Streams[i].Chunks {
			c := &d.Streams[i].Chunks[j]
			for _, v := range c.floats() {
				*v = r.F64()
			}
			c.Day = r.I32()
		}
	}
}

// floats lists a chunk's float fields in layout order: size, transmit
// time, then the five tcp_info fields.
func (c *ChunkObs) floats() [7]*float64 {
	return [...]*float64{&c.Size, &c.TransTime, &c.Info.CWND, &c.Info.InFlight, &c.Info.MinRTT, &c.Info.RTT, &c.Info.DeliveryRate}
}
