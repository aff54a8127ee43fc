package transform

import (
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
	// DC of a constant block: 8 * value with our x4 scaling (4 * mean*2).
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
		z := NewQuantizer(q)
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
