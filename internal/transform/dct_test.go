package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFDCTDCOnly(t *testing.T) {
	var b Block
	for i := range b {
		b[i] = 100
	}
	var c Block
	FDCT(&c, &b)
	// DC of a constant block at the orthonormal scale: 8 × value.
	if c[0] != 800 {
		t.Errorf("DC coefficient = %d, want 800", c[0])
	}
	for i := 1; i < len(c); i++ {
		if c[i] != 0 {
			t.Errorf("AC coefficient %d = %d, want 0", i, c[i])
		}
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var b Block
		for i := range b {
			b[i] = int32(rng.Intn(256) - 128)
		}
		var c, r Block
		FDCT(&c, &b)
		IDCT(&r, &c)
		for i := range b {
			d := r[i] - b[i]
			if d < -1 || d > 1 {
				t.Fatalf("trial %d sample %d: round trip %d -> %d", trial, i, b[i], r[i])
			}
		}
	}
}

// basis[k][n] is the orthonormal 1-D DCT-II basis: c(k)/2·cos((2n+1)kπ/16)
// with c(0) = 1/√2, c(k) = 1 otherwise. The float64 transforms below are
// the test oracle, not a second code path.
var basis = func() (b [BlockSize][BlockSize]float64) {
	for k := range b {
		ck := 0.5
		if k == 0 {
			ck = math.Sqrt2 / 4
		}
		for n := range b[k] {
			b[k][n] = ck * math.Cos(math.Pi*float64(2*n+1)*float64(k)/16)
		}
	}
	return b
}()

// exactFDCT is the separable float64 orthonormal forward DCT.
func exactFDCT(src *[blockLen]float64) (dst [blockLen]float64) {
	var tmp [blockLen]float64
	for y := 0; y < BlockSize; y++ {
		for k := 0; k < BlockSize; k++ {
			s := 0.0
			for n := 0; n < BlockSize; n++ {
				s += basis[k][n] * src[y*BlockSize+n]
			}
			tmp[y*BlockSize+k] = s
		}
	}
	for x := 0; x < BlockSize; x++ {
		for k := 0; k < BlockSize; k++ {
			s := 0.0
			for n := 0; n < BlockSize; n++ {
				s += basis[k][n] * tmp[n*BlockSize+x]
			}
			dst[k*BlockSize+x] = s
		}
	}
	return dst
}

// exactIDCT is the separable float64 orthonormal inverse DCT.
func exactIDCT(src *[blockLen]float64) (dst [blockLen]float64) {
	var tmp [blockLen]float64
	for x := 0; x < BlockSize; x++ {
		for n := 0; n < BlockSize; n++ {
			s := 0.0
			for k := 0; k < BlockSize; k++ {
				s += basis[k][n] * src[k*BlockSize+x]
			}
			tmp[n*BlockSize+x] = s
		}
	}
	for y := 0; y < BlockSize; y++ {
		for n := 0; n < BlockSize; n++ {
			s := 0.0
			for k := 0; k < BlockSize; k++ {
				s += basis[k][n] * tmp[y*BlockSize+k]
			}
			dst[y*BlockSize+n] = s
		}
	}
	return dst
}

func toFloat(b *Block) (f [blockLen]float64) {
	for i, v := range b {
		f[i] = float64(v)
	}
	return f
}

// TestFixedPointConstants pins every islow constant to round(v·2^13) of
// the cosine expression it stands for.
func TestFixedPointConstants(t *testing.T) {
	c := func(k int) float64 { return math.Cos(float64(k) * math.Pi / 16) }
	for _, tc := range []struct {
		name string
		got  int64
		v    float64
	}{
		{"fix0_298631336", fix0_298631336, math.Sqrt2 * (-c(1) + c(3) + c(5) - c(7))},
		{"fix0_390180644", fix0_390180644, math.Sqrt2 * (c(3) - c(5))},
		{"fix0_541196100", fix0_541196100, math.Sqrt2 * c(6)},
		{"fix0_765366865", fix0_765366865, math.Sqrt2 * (c(2) - c(6))},
		{"fix0_899976223", fix0_899976223, math.Sqrt2 * (c(3) - c(7))},
		{"fix1_175875602", fix1_175875602, math.Sqrt2 * c(3)},
		{"fix1_501321110", fix1_501321110, math.Sqrt2 * (c(1) + c(3) - c(5) - c(7))},
		{"fix1_847759065", fix1_847759065, math.Sqrt2 * (c(2) + c(6))},
		{"fix1_961570560", fix1_961570560, math.Sqrt2 * (c(3) + c(5))},
		{"fix2_053119869", fix2_053119869, math.Sqrt2 * (c(1) + c(3) - c(5) + c(7))},
		{"fix2_562915447", fix2_562915447, math.Sqrt2 * (c(1) + c(3))},
		{"fix3_072711026", fix3_072711026, math.Sqrt2 * (c(1) + c(3) + c(5) - c(7))},
	} {
		if want := int64(math.Round(tc.v * (1 << constBits))); tc.got != want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, want)
		}
	}
}

// TestFDCTWithinOneOfExact checks the fixed-point forward transform
// against the rounded exact one, over the codecs' two input ranges:
// level-shifted intra samples and inter residuals.
func TestFDCTWithinOneOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1180))
	for _, r := range []struct{ lo, hi int }{{-128, 127}, {-255, 255}} {
		for trial := 0; trial < 10000; trial++ {
			var b Block
			for i := range b {
				b[i] = int32(r.lo + rng.Intn(r.hi-r.lo+1))
			}
			in := toFloat(&b)
			want := exactFDCT(&in)
			var got Block
			FDCT(&got, &b)
			for i, w := range want {
				if d := float64(got[i]) - math.Round(w); d < -1 || d > 1 {
					t.Fatalf("range [%d, %d] trial %d coeff %d: FDCT %d, exact %.3f", r.lo, r.hi, trial, i, got[i], w)
				}
			}
		}
	}
}

// TestIDCTIEEE1180 runs the IEEE 1180-1990 accuracy test: random blocks
// in [−L, H] go through the exact forward DCT, are rounded and clamped to
// [−2048, 2047], then reconstructed by IDCT and by the exact inverse, both
// rounded and clamped to [−256, 255]. Each range runs with both signs of
// the input, 10 000 blocks apiece. The standard's own random generator is
// replaced by a seeded math/rand; its limits are unchanged.
func TestIDCTIEEE1180(t *testing.T) {
	clamp := func(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
	const blocks = 10000
	for _, r := range []struct{ l, h int }{{256, 255}, {5, 5}, {300, 300}} {
		for _, sign := range []int{1, -1} {
			rng := rand.New(rand.NewSource(int64(r.l*1000 + r.h)))
			var errSum, sqSum [blockLen]float64
			peak := 0.0
			for trial := 0; trial < blocks; trial++ {
				var in [blockLen]float64
				for i := range in {
					in[i] = float64(sign * (rng.Intn(r.l+r.h+1) - r.l))
				}
				coef := exactFDCT(&in)
				var q Block
				for i, c := range coef {
					coef[i] = clamp(math.Round(c), -2048, 2047)
					q[i] = int32(coef[i])
				}
				ref := exactIDCT(&coef)
				var got Block
				IDCT(&got, &q)
				for i := range ref {
					e := clamp(float64(got[i]), -256, 255) - clamp(math.Round(ref[i]), -256, 255)
					errSum[i] += e
					sqSum[i] += e * e
					peak = math.Max(peak, math.Abs(e))
				}
			}
			var totErr, totSq, worstMSE, worstMean float64
			for i := range errSum {
				totErr += errSum[i]
				totSq += sqSum[i]
				worstMSE = math.Max(worstMSE, sqSum[i]/blocks)
				worstMean = math.Max(worstMean, math.Abs(errSum[i])/blocks)
			}
			overallMSE := totSq / (blocks * blockLen)
			overallMean := math.Abs(totErr) / (blocks * blockLen)
			t.Logf("[-%d, %d] sign %+d: peak %.0f, worst MSE %.4f, overall MSE %.4f, worst mean %.4f, overall mean %.5f",
				r.l, r.h, sign, peak, worstMSE, overallMSE, worstMean, overallMean)
			if peak > 1 || worstMSE > 0.06 || overallMSE > 0.02 || worstMean > 0.015 || overallMean > 0.0015 {
				t.Errorf("[-%d, %d] sign %+d fails IEEE 1180: peak %.0f (≤ 1), worst MSE %.4f (≤ 0.06), overall MSE %.4f (≤ 0.02), worst mean %.4f (≤ 0.015), overall mean %.5f (≤ 0.0015)",
					r.l, r.h, sign, peak, worstMSE, overallMSE, worstMean, overallMean)
			}
		}
	}
	var zero, out Block
	IDCT(&out, &zero)
	if out != zero {
		t.Errorf("IDCT of an all-zero block = %v, want all zero", out)
	}
}

// maxDequant bounds the dequantized coefficient an encoder can emit: a
// residual block in [−255, 255] has orthonormal coefficients of magnitude
// at most 8·255 = 2040, and rounding to a multiple of a divisor of at most
// 1024 adds at most 512.
const maxDequant = 2040 + 512

// TestDCTExtremeInputs drives both transforms at the inputs the overflow
// note in dct.go names and compares them with the exact transforms:
// all-±255 checkerboards, and a single coefficient at every position at
// ±maxDequant (within ±1) and at the int32 extremes (within the
// fixed-point constants' relative error, far inside what a wrap would
// show).
func TestDCTExtremeInputs(t *testing.T) {
	for _, sign := range []int32{1, -1} {
		var b Block
		for i := range b {
			b[i] = sign * 255
			if (i/BlockSize+i%BlockSize)%2 == 1 {
				b[i] = -b[i]
			}
		}
		in := toFloat(&b)
		want := exactFDCT(&in)
		var c Block
		FDCT(&c, &b)
		for i, w := range want {
			if d := float64(c[i]) - math.Round(w); d < -1 || d > 1 {
				t.Errorf("checkerboard %+d: FDCT coeff %d = %d, exact %.3f", sign*255, i, c[i], w)
			}
		}
		cf := toFloat(&c)
		rec := exactIDCT(&cf)
		var r Block
		IDCT(&r, &c)
		for i, w := range rec {
			if d := float64(r[i]) - math.Round(w); d < -1 || d > 1 {
				t.Errorf("checkerboard %+d: IDCT sample %d = %d, exact %.3f", sign*255, i, r[i], w)
			}
		}
	}
	for _, tc := range []struct {
		v   int32
		tol float64
	}{
		{maxDequant, 1}, {-maxDequant, 1},
		// 2^-10 of the coefficient is ~35× the fixed-point constants'
		// worst error there and 2^22 times smaller than a 2^32 wrap.
		{math.MaxInt32, math.MaxInt32 / 1024}, {math.MinInt32, math.MaxInt32 / 1024},
	} {
		for pos := 0; pos < blockLen; pos++ {
			var c Block
			c[pos] = tc.v
			cf := toFloat(&c)
			want := exactIDCT(&cf)
			var r Block
			IDCT(&r, &c)
			for i, w := range want {
				if d := math.Abs(float64(r[i]) - math.Round(w)); d > tc.tol {
					t.Fatalf("coefficient %d at %d: IDCT sample %d = %d, exact %.3f", tc.v, pos, i, r[i], w)
				}
			}
		}
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	var b Block
	for i := range b {
		b[i] = int32(i)
	}
	scan := make([]int32, len(b))
	Zigzag(scan, &b)
	var back Block
	Unzigzag(&back, scan)
	if back != b {
		t.Error("zigzag/unzigzag is not a bijection")
	}
	// Low frequencies first: the first scan entries are from the top-left.
	if scan[0] != 0 || scan[1] != 1 || scan[2] != 8 {
		t.Errorf("zigzag order starts %v, want [0 1 8 ...]", scan[:3])
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := make(map[int]bool)
	for _, idx := range zigzag {
		if idx < 0 || idx >= blockLen {
			t.Fatalf("zigzag index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("zigzag index %d repeated", idx)
		}
		seen[idx] = true
	}
}

func TestQuantTableQualityOrdering(t *testing.T) {
	lo := QuantTable(10)
	hi := QuantTable(90)
	for i := range lo {
		if hi[i] > lo[i] {
			t.Fatalf("entry %d: q90 divisor %d > q10 divisor %d", i, hi[i], lo[i])
		}
	}
}

func TestQuantTableClampsQuality(t *testing.T) {
	if QuantTable(-5) != QuantTable(1) {
		t.Error("quality below 1 not clamped")
	}
	if QuantTable(200) != QuantTable(100) {
		t.Error("quality above 100 not clamped")
	}
}

func TestQuantizeDequantizeBoundedError(t *testing.T) {
	table := QuantTable(80)
	rng := rand.New(rand.NewSource(3))
	var b Block
	for i := range b {
		b[i] = int32(rng.Intn(2000) - 1000)
	}
	orig := b
	Quantize(&b, &table)
	Dequantize(&b, &table)
	for i := range b {
		d := b[i] - orig[i]
		if d < 0 {
			d = -d
		}
		if d > table[i]/2 {
			t.Fatalf("coeff %d: error %d exceeds half step %d", i, d, table[i]/2)
		}
	}
}

func TestQuantizeSymmetricAroundZero(t *testing.T) {
	table := QuantTable(50)
	var pos, neg Block
	for i := range pos {
		pos[i] = int32(i * 13)
		neg[i] = -pos[i]
	}
	Quantize(&pos, &table)
	Quantize(&neg, &table)
	for i := range pos {
		if pos[i] != -neg[i] {
			t.Fatalf("coeff %d: quantize(+v)=%d but quantize(-v)=%d", i, pos[i], neg[i])
		}
	}
}

// Property: quality-q quantize→dequantize→IDCT of any 8-bit block stays
// within a small error bound at high quality.
func TestQuickHighQualityNearLossless(t *testing.T) {
	table := QuantTable(95)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b Block
		for i := range b {
			// Smooth-ish content: random walk.
			if i == 0 {
				b[i] = int32(rng.Intn(200) - 100)
			} else {
				b[i] = b[i-1] + int32(rng.Intn(11)-5)
			}
		}
		orig := b
		var c Block
		FDCT(&c, &b)
		Quantize(&c, &table)
		Dequantize(&c, &table)
		IDCT(&b, &c)
		for i := range b {
			d := b[i] - orig[i]
			if d < -12 || d > 12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuantizeZigzagMatchesSeparatePasses pins the fused encoder pass: at
// every quality, QuantizeZigzag writes exactly what Quantize followed by
// Zigzag does and counts exactly the non-zero scan entries.
func TestQuantizeZigzagMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for q := 1; q <= 100; q++ {
		z := newQuantizer(q)
		for trial := 0; trial < 50; trial++ {
			var b Block
			if trial%2 == 0 {
				// Forward transform of samples (intra) or differences
				// (residual): the coefficient range the encoders feed.
				for i := range b {
					b[i] = int32(rng.Intn(511) - 255)
				}
				FDCT(&b, &b)
			} else {
				for i := range b {
					b[i] = int32(rng.Intn(8193) - 4096)
				}
			}
			ref := b
			Quantize(&ref, &z.Table)
			want := make([]int32, 64)
			Zigzag(want, &ref)
			wantNZ := 0
			for _, c := range want {
				if c != 0 {
					wantNZ++
				}
			}
			got := make([]int32, 64)
			in := b
			nz := z.QuantizeZigzag(got, &b)
			if b != in {
				t.Fatalf("q=%d: QuantizeZigzag modified its input", q)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d trial %d: scan[%d] = %d, want %d", q, trial, i, got[i], want[i])
				}
			}
			if nz != wantNZ {
				t.Fatalf("q=%d trial %d: non-zero count %d, want %d", q, trial, nz, wantNZ)
			}
		}
	}
}

// TestQuantizerForIsCachedPerQuality checks the per-quality cache: one
// shared quantizer per quality, equal to a freshly built one, with
// out-of-range qualities clamped as QuantTable clamps them.
func TestQuantizerForIsCachedPerQuality(t *testing.T) {
	for q := 1; q <= 100; q++ {
		z := QuantizerFor(q)
		if *z != newQuantizer(q) {
			t.Fatalf("q=%d: cached quantizer differs from a freshly built one", q)
		}
		if QuantizerFor(q) != z {
			t.Fatalf("q=%d: second lookup built another quantizer", q)
		}
	}
	if QuantizerFor(0) != QuantizerFor(1) || QuantizerFor(250) != QuantizerFor(100) {
		t.Error("out-of-range qualities are not clamped to [1, 100]")
	}
}
