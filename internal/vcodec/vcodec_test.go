package vcodec

import (
	"bytes"
	"math"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/metrics"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

func testConfig() Config {
	return Config{
		Width: 160, Height: 96,
		FPS: 30, BitrateKbps: 800,
		GOP: 24, AltRefInterval: 8,
		Mode: ModeConstrainedVBR,
	}
}

func testFrames(t *testing.T, name string, n int) []*frame.Frame {
	t.Helper()
	p, err := synth.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 160, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g.GenerateChunk(n)
}

func encodeDecode(t *testing.T, cfg Config, frames []*frame.Frame) (*Stream, []*Decoded) {
	t.Helper()
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	return stream, decoded
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 96, FPS: 30, BitrateKbps: 500, GOP: 24},
		{Width: 160, Height: 96, FPS: 0, BitrateKbps: 500, GOP: 24},
		{Width: 160, Height: 96, FPS: 30, BitrateKbps: 0, GOP: 24},
		{Width: 160, Height: 96, FPS: 30, BitrateKbps: 500, GOP: 0},
		{Width: 160, Height: 96, FPS: 30, BitrateKbps: 500, GOP: 24, AltRefInterval: 1},
		{Width: 160, Height: 96, FPS: 30, BitrateKbps: 500, GOP: 24, SearchRange: 100},
	}
	for i, cfg := range bad {
		if _, err := NewEncoder(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRoundTripQuality(t *testing.T) {
	frames := testFrames(t, "lol", 25)
	_, decoded := encodeDecode(t, testConfig(), frames)
	visible := VisibleFrames(decoded)
	if len(visible) != len(frames) {
		t.Fatalf("decoded %d visible frames, want %d", len(visible), len(frames))
	}
	psnr, err := metrics.MeanPSNR(frames, visible)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 28 {
		t.Errorf("round-trip PSNR %.2f dB, want >= 28", psnr)
	}
}

func TestDisplayOrderPreserved(t *testing.T) {
	frames := testFrames(t, "gta", 20)
	_, decoded := encodeDecode(t, testConfig(), frames)
	next := 0
	for _, d := range decoded {
		if !d.Info.Visible {
			continue
		}
		if d.Info.DisplayIndex != next {
			t.Fatalf("visible frame order broken: got %d, want %d", d.Info.DisplayIndex, next)
		}
		next++
	}
	if next != 20 {
		t.Fatalf("saw %d visible frames", next)
	}
}

func TestFrameTypeSchedule(t *testing.T) {
	frames := testFrames(t, "minecraft", 25)
	stream, _ := encodeDecode(t, testConfig(), frames)
	var keys, altrefs, inters int
	for _, p := range stream.Packets {
		switch p.Info.Type {
		case Key:
			keys++
			if !p.Info.Visible {
				t.Error("key frame marked invisible")
			}
			if p.Info.ResidualBytes != 0 {
				t.Error("key frame has nonzero residual accumulation size")
			}
		case AltRef:
			altrefs++
			if p.Info.Visible {
				t.Error("altref frame marked visible")
			}
		case Inter:
			inters++
		}
	}
	if keys != 2 { // frames 0 and 24 with GOP 24
		t.Errorf("keys = %d, want 2", keys)
	}
	if altrefs < 2 {
		t.Errorf("altrefs = %d, want >= 2 with interval 8 over 25 frames", altrefs)
	}
	if inters != 25-keys {
		t.Errorf("inters = %d, want %d", inters, 25-keys)
	}
}

func TestCBRHasNoAltrefs(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModeCBR
	frames := testFrames(t, "lol", 20)
	stream, _ := encodeDecode(t, cfg, frames)
	for _, p := range stream.Packets {
		if p.Info.Type == AltRef {
			t.Fatal("CBR stream contains altref frames")
		}
	}
}

func TestAltRefIsReferenced(t *testing.T) {
	// On high-motion content with scene structure, some blocks should
	// pick the altref reference; otherwise the dual-reference machinery
	// is dead code.
	frames := testFrames(t, "fortnite", 25)
	stream, _ := encodeDecode(t, testConfig(), frames)
	altrefHits := 0
	for _, p := range stream.Packets {
		if p.Info.Type != Inter {
			continue
		}
		for _, r := range p.Info.Refs {
			if r == RefAltRef {
				altrefHits++
			}
		}
	}
	if altrefHits == 0 {
		t.Error("no block ever referenced an altref frame")
	}
}

func TestRateControlTracksTarget(t *testing.T) {
	cfg := testConfig()
	cfg.BitrateKbps = 600
	frames := testFrames(t, "gta", 48)
	stream, _ := encodeDecode(t, cfg, frames)
	got := stream.BitrateKbps()
	if got < 150 || got > 2400 {
		t.Errorf("achieved bitrate %.0f kbps, target %d (want within 4x band)", got, cfg.BitrateKbps)
	}
}

func TestBitrateKnobChangesSize(t *testing.T) {
	frames := testFrames(t, "lol", 24)
	cfgLo := testConfig()
	cfgLo.BitrateKbps = 150
	cfgHi := testConfig()
	cfgHi.BitrateKbps = 3000
	lo, _ := encodeDecode(t, cfgLo, frames)
	hi, _ := encodeDecode(t, cfgHi, frames)
	if lo.TotalBytes() >= hi.TotalBytes() {
		t.Errorf("low-rate stream %dB >= high-rate stream %dB", lo.TotalBytes(), hi.TotalBytes())
	}
}

func TestResidualTracksMotion(t *testing.T) {
	// Static content (chat) must produce far smaller residuals than
	// high-motion content (fortnite): the signal anchor selection uses.
	sum := func(name string) int {
		frames := testFrames(t, name, 16)
		stream, _ := encodeDecode(t, testConfig(), frames)
		total := 0
		for _, p := range stream.Packets {
			if p.Info.Type == Inter {
				total += p.Info.ResidualBytes
			}
		}
		return total
	}
	chat, fn := sum("chat"), sum("fortnite")
	// Rate control partially offsets the gap (low-motion content gets a
	// finer quantizer), so require a 1.5x margin rather than the raw
	// motion ratio.
	if float64(chat)*1.5 > float64(fn) {
		t.Errorf("residual bytes: chat=%d fortnite=%d, want fortnite >> chat", chat, fn)
	}
}

func TestEncoderRejectsWrongSize(t *testing.T) {
	enc, err := NewEncoder(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeChunk([]*frame.Frame{frame.MustNew(64, 64)}); err == nil {
		t.Error("encoder accepted mismatched frame size")
	}
}

func TestChunkedEncodingMatchesWholeStream(t *testing.T) {
	frames := testFrames(t, "lol", 24)
	enc, err := NewEncoder(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var pkts []Packet
	for i := 0; i < len(frames); i += 8 {
		chunk, err := enc.EncodeChunk(frames[i : i+8])
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, chunk...)
	}
	stream := &Stream{Config: enc.Config(), Packets: pkts}
	decoded, err := DecodeStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	visible := VisibleFrames(decoded)
	if len(visible) != 24 {
		t.Fatalf("chunked stream decoded %d frames", len(visible))
	}
	psnr, _ := metrics.MeanPSNR(frames, visible)
	if psnr < 27 {
		t.Errorf("chunked round trip PSNR %.2f", psnr)
	}
}

func TestDecoderRejectsInterFirst(t *testing.T) {
	frames := testFrames(t, "lol", 10)
	stream, _ := encodeDecode(t, testConfig(), frames)
	d, err := NewDecoderFor(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Skip the key packet; the first inter packet must be rejected.
	if _, err := d.Decode(stream.Packets[1].Data); err == nil {
		t.Error("decoder accepted inter frame with no reference state")
	}
}

func TestDecoderRejectsTruncated(t *testing.T) {
	frames := testFrames(t, "lol", 4)
	stream, _ := encodeDecode(t, testConfig(), frames)
	d, _ := NewDecoderFor(stream)
	pkt := stream.Packets[0].Data
	if _, err := d.Decode(pkt[:len(pkt)/3]); err == nil {
		t.Error("decoder accepted truncated key packet")
	}
	if _, err := d.Decode(nil); err == nil {
		t.Error("decoder accepted empty packet")
	}
}

func TestInfoConsistency(t *testing.T) {
	frames := testFrames(t, "valorant", 16)
	stream, decoded := encodeDecode(t, testConfig(), frames)
	if len(stream.Packets) != len(decoded) {
		t.Fatalf("packets %d != decoded %d", len(stream.Packets), len(decoded))
	}
	grid := stream.Config.grid()
	for i, d := range decoded {
		enc := stream.Packets[i].Info
		if d.Info.Type != enc.Type || d.Info.DisplayIndex != enc.DisplayIndex {
			t.Fatalf("packet %d: decoder info %+v != encoder info %+v", i, d.Info, enc)
		}
		if d.Info.Type != Key {
			if len(d.Info.MVs) != grid.NumBlocks() {
				t.Fatalf("packet %d: %d MVs, want %d", i, len(d.Info.MVs), grid.NumBlocks())
			}
			if d.Info.ResidualBytes != enc.ResidualBytes {
				t.Fatalf("packet %d: residual %d != %d", i, d.Info.ResidualBytes, enc.ResidualBytes)
			}
		}
	}
}

func TestFrameTypeString(t *testing.T) {
	if Key.String() != "key" || AltRef.String() != "altref" || Inter.String() != "inter" {
		t.Error("FrameType.String broken")
	}
	if FrameType(9).String() == "" {
		t.Error("unknown FrameType should still format")
	}
}

func TestCaptureResidual(t *testing.T) {
	frames := testFrames(t, "lol", 10)
	enc, err := NewEncoder(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := enc.EncodeAll(frames)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDecoderFor(stream)
	d.CaptureResidual = true
	for i, p := range stream.Packets {
		dec, err := d.Decode(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Info.Type == Key {
			if dec.Residual != nil {
				t.Errorf("packet %d: key frame has residual", i)
			}
			continue
		}
		if dec.Residual == nil {
			t.Fatalf("packet %d: missing residual capture", i)
		}
		if dec.Residual.W != stream.Config.Width || dec.Residual.H != stream.Config.Height {
			t.Fatalf("packet %d: residual size %dx%d", i, dec.Residual.W, dec.Residual.H)
		}
	}
}

func TestCaptureResidualDisabledByDefault(t *testing.T) {
	frames := testFrames(t, "lol", 4)
	stream, decoded := encodeDecode(t, testConfig(), frames)
	_ = stream
	for _, d := range decoded {
		if d.Residual != nil {
			t.Fatal("residual returned without CaptureResidual")
		}
	}
}

// TestReconstructLeavesDecodedMotion pins the split between Decode and
// Reconstruct: frames Reconstruct advances through read their motion
// into decoder scratch, which must neither change the MVs and Refs an
// earlier Decode handed out nor the reference state later frames
// predict from.
func TestReconstructLeavesDecodedMotion(t *testing.T) {
	// The synthetic profiles barely move, so give the first inter frame a
	// motion no later frame has: a 4-pixel pan of a wave pattern, then
	// a still one.
	cfg := testConfig()
	frames := make([]*frame.Frame, 12)
	for i := range frames {
		f, err := frame.New(cfg.Width, cfg.Height)
		if err != nil {
			t.Fatal(err)
		}
		dx := min(i, 1) * 4
		for _, p := range f.Planes() {
			for y := 0; y < p.H; y++ {
				for x := 0; x < p.W; x++ {
					sx := float64(x + dx*p.W/cfg.Width)
					p.Set(x, y, byte(128+90*math.Sin(sx/2.5)*math.Cos(float64(y)/3.5)))
				}
			}
		}
		frames[i] = f
	}
	stream, want := encodeDecode(t, testConfig(), frames)
	d, err := NewDecoderFor(stream)
	if err != nil {
		t.Fatal(err)
	}
	last := len(stream.Packets) - 1
	var kept []*Decoded
	for i, pkt := range stream.Packets {
		if i < 2 || i == last {
			got, err := d.Decode(pkt.Data)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, got)
			continue
		}
		if err := d.Reconstruct(pkt.Data); err != nil {
			t.Fatal(err)
		}
	}
	inter := kept[1].Info
	panned := 0
	for _, mv := range inter.MVs {
		if mv.DX != 0 {
			panned++
		}
	}
	if inter.Type == Key || panned < len(inter.MVs)/2 {
		t.Fatalf("packet 1 (%v) carries the pan in %d of %d blocks", inter.Type, panned, len(inter.MVs))
	}
	for i, mv := range inter.MVs {
		if mv != want[1].Info.MVs[i] || inter.Refs[i] != want[1].Info.Refs[i] {
			t.Fatalf("block %d: decoded motion %v/%d changed to %v/%d", i, want[1].Info.MVs[i], want[1].Info.Refs[i], mv, inter.Refs[i])
		}
	}
	for i, p := range kept[2].Frame.Planes() {
		if !bytes.Equal(p.Pix, want[last].Frame.Planes()[i].Pix) {
			t.Errorf("plane %d of the last frame differs from a Decode of every packet", i)
		}
	}
}
