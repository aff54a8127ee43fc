package vcodec

import (
	"runtime/debug"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// TestDecodeAllocs guards the decode stage of the origin's per-chunk job:
// a warm Decoder decoding a 12-frame 96×64 GOP with two workers allocates
// only what Decode returns, a Decoded per packet and, for an inter packet,
// its MVs and Refs; frames and the residual come from the arena and go
// back to it, and the parallel kernels allocate nothing.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	p, err := synth.ProfileByName("lol")
	if err != nil {
		t.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 96, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(2)
	enc, err := NewEncoder(Config{Width: 96, Height: 64, FPS: 30, BitrateKbps: 400, GOP: 12, AltRefInterval: 4, Mode: ModeConstrainedVBR})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeAll(g.GenerateChunk(12))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, pkt := range stream.Packets {
		want++
		if pkt.Info.Type != Key {
			want += 2
		}
	}
	d, err := NewDecoderFor(stream)
	if err != nil {
		t.Fatal(err)
	}
	d.CaptureResidual = true
	gop := func() {
		for _, pkt := range stream.Packets {
			dec, err := d.Decode(pkt.Data)
			if err != nil {
				t.Fatal(err)
			}
			frame.Release(dec.Frame)
			frame.Release(dec.Residual)
		}
	}
	// The collector stays off so the pools keep what is put back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(20, gop); n > float64(want) {
		t.Errorf("a warm GOP decode allocates %.0f times, want at most %d (what Decode returns)", n, want)
	}
}
