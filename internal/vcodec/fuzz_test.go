package vcodec

import (
	"reflect"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// FuzzDecode throws arbitrary packets at a primed video decoder.
func FuzzDecode(f *testing.F) {
	p, err := synth.ProfileByName("lol")
	if err != nil {
		f.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 48, 32, 1)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := NewEncoder(Config{Width: 48, Height: 32, FPS: 30, BitrateKbps: 200, GOP: 8})
	if err != nil {
		f.Fatal(err)
	}
	stream, err := enc.EncodeAll(g.GenerateChunk(4))
	if err != nil {
		f.Fatal(err)
	}
	for _, pkt := range stream.Packets {
		f.Add(pkt.Data)
	}
	f.Add([]byte{})
	key := stream.Packets[0].Data
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(48, 32)
		if err != nil {
			t.Fatal(err)
		}
		d.CaptureResidual = true
		// Prime with a valid key so inter parsing paths are reachable.
		if _, err := d.Decode(key); err != nil {
			t.Fatal(err)
		}
		_, _ = d.Decode(data)
	})
}

// FuzzScan pins Scan to Decode on a key-primed decoder: over arbitrary
// packets both fail with the same error or both succeed with the same
// side information, and Scan leaves the reference slots untouched.
func FuzzScan(f *testing.F) {
	p, err := synth.ProfileByName("lol")
	if err != nil {
		f.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 48, 32, 1)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := NewEncoder(Config{Width: 48, Height: 32, FPS: 30, BitrateKbps: 200, GOP: 8, AltRefInterval: 4})
	if err != nil {
		f.Fatal(err)
	}
	stream, err := enc.EncodeAll(g.GenerateChunk(8))
	if err != nil {
		f.Fatal(err)
	}
	for _, pkt := range stream.Packets {
		f.Add(pkt.Data)
		f.Add(pkt.Data[:len(pkt.Data)/2])
	}
	f.Add([]byte{})
	key := stream.Packets[0].Data
	f.Fuzz(func(t *testing.T, data []byte) {
		primed := func() *Decoder {
			d, err := NewDecoder(48, 32)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Decode(key); err != nil {
				t.Fatal(err)
			}
			return d
		}
		scanner, decoder := primed(), primed()
		scanned, serr := scanner.Scan(data)
		dec, derr := decoder.Decode(data)
		if (serr == nil) != (derr == nil) {
			t.Fatalf("Scan err = %v, Decode err = %v", serr, derr)
		}
		if derr != nil {
			if serr.Error() != derr.Error() {
				t.Fatalf("Scan err %q, Decode err %q", serr, derr)
			}
			return
		}
		want := dec.Info
		want.MVs, want.Refs = nil, nil
		if !reflect.DeepEqual(scanned, want) {
			t.Fatalf("Scan info %+v, Decode info %+v", scanned, want)
		}
		// The scanned decoder's state is still the primed one: decoding
		// the packet now reconstructs what the unscanned decoder did.
		again, err := scanner.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Frame, dec.Frame) {
			t.Fatal("Scan changed the decoder's reference state")
		}
	})
}
