package icodec

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/transform"
)

// referenceEncode is the block coder as separate passes — quantize in
// raster order, DC prediction, zigzag scan, then a post-hoc non-zero
// count — kept here to pin Encode's fused single pass to it.
func referenceEncode(f *frame.Frame, quality int) ([]byte, Stats) {
	var w bitstream.Writer
	w.WriteBits(magic, 32)
	w.WriteBits(version, 8)
	w.WriteBits(uint64(f.W), 16)
	w.WriteBits(uint64(f.H), 16)
	w.WriteBits(uint64(quality), 8)
	table := transform.QuantTable(quality)
	var st Stats
	bs := transform.BlockSize
	scan := make([]int32, 64)
	for _, p := range f.Planes() {
		nbx := (p.W + bs - 1) / bs
		n := nbx * ((p.H + bs - 1) / bs)
		prevDC := int32(0)
		var b transform.Block
		for i := 0; i < n; i++ {
			loadBlock(&b, p, (i%nbx)*bs, (i/nbx)*bs)
			transform.FDCT(&b, &b)
			transform.Quantize(&b, &table)
			dc := b[0]
			b[0] -= prevDC
			prevDC = dc
			transform.Zigzag(scan, &b)
			bitstream.WriteCoeffs(&w, scan)
			st.BlocksCoded++
			for _, c := range scan {
				if c != 0 {
					st.NonZeroCoefs++
				}
			}
		}
	}
	buf := w.Bytes()
	st.Bytes = len(buf)
	return buf, st
}

func randomFrame(w, h int, seed int64) *frame.Frame {
	f := frame.MustNew(w, h)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range f.Planes() {
		for y := 0; y < p.H; y++ {
			rng.Read(p.Row(y))
		}
	}
	return f
}

// TestEncodeMatchesSeparatePasses checks Encode's bytes and Stats (the
// cluster cost model reads NonZeroCoefs) against the separate-pass
// reference at every quality, on noise and on synthetic content, with the
// fused single-worker loop and the two-phase parallel one.
func TestEncodeMatchesSeparatePasses(t *testing.T) {
	frames := map[string]*frame.Frame{
		"random":    randomFrame(41, 23, 7),
		"synthetic": testFrame(t, 48, 32),
	}
	old := par.Workers()
	defer par.SetWorkers(old)
	for _, workers := range []int{1, 3} {
		par.SetWorkers(workers)
		for name, f := range frames {
			for q := 1; q <= 100; q++ {
				want, wantSt := referenceEncode(f, q)
				got, gotSt, err := Encode(f, Options{Quality: q})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) || gotSt != wantSt {
					t.Fatalf("%s q=%d workers=%d: Encode = %d bytes %+v, reference %d bytes %+v (bytes equal: %v)",
						name, q, workers, len(got), gotSt, len(want), wantSt, bytes.Equal(got, want))
				}
			}
		}
	}
}

// TestValidateMatchesDecode is Validate's differential test: over valid
// streams, every truncation of them, and single-bit flips past the
// header, Validate accepts exactly the inputs Decode accepts and reports
// the dimensions Decode reconstructs.
func TestValidateMatchesDecode(t *testing.T) {
	const headerBytes = 10 // magic, version, width, height, quality
	rng := rand.New(rand.NewSource(11))
	var inputs [][]byte
	for _, f := range []*frame.Frame{randomFrame(17, 9, 1), testFrame(t, 40, 24)} {
		for _, q := range []int{1, 30, 75, 100} {
			good, _, err := Encode(f, Options{Quality: q})
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, good)
			for n := 0; n < len(good); n++ {
				inputs = append(inputs, good[:n])
			}
			for i := 0; i < 200; i++ {
				flipped := bytes.Clone(good)
				bit := headerBytes*8 + rng.Intn((len(good)-headerBytes)*8)
				flipped[bit/8] ^= 0x80 >> (bit % 8)
				inputs = append(inputs, flipped)
			}
		}
	}
	// A version-1 stream, coded with the float transform, is refused by
	// both with the same error.
	v1 := bytes.Clone(inputs[0])
	v1[4] = 1
	inputs = append(inputs, v1)
	_, _, verr := Validate(v1)
	_, derr := Decode(v1)
	if verr == nil || derr == nil || verr.Error() != derr.Error() {
		t.Fatalf("version 1: Validate err = %v, Decode err = %v, want the same refusal", verr, derr)
	}
	accepted := 0
	for i, data := range inputs {
		w, h, verr := Validate(data)
		got, derr := Decode(data)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("input %d (%d bytes): Validate err = %v, Decode err = %v", i, len(data), verr, derr)
		}
		if derr != nil {
			continue
		}
		accepted++
		if w != got.W || h != got.H {
			t.Fatalf("input %d: Validate says %dx%d, Decode made %dx%d", i, w, h, got.W, got.H)
		}
	}
	if accepted == 0 || accepted == len(inputs) {
		t.Fatalf("accepted %d of %d inputs: the corpus must hold both outcomes", accepted, len(inputs))
	}
}
