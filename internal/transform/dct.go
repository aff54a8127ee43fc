// Package transform implements the 8×8 type-II DCT / inverse DCT,
// quantization, and zigzag scanning shared by the image codec (intra
// blocks) and the video codec (residual blocks).
package transform

import (
	"math"
	"math/bits"
)

// BlockSize is the transform block edge length in samples.
const BlockSize = 8

// blockLen is the number of samples per block.
const blockLen = BlockSize * BlockSize

// Block is an 8×8 sample block in row-major order. Forward input is
// level-shifted signed samples; inverse output is the same domain.
type Block [blockLen]int32

var cosTable [BlockSize][BlockSize]float64

// cosTableT is cosTable transposed (indexed [n][k]) so the inverse
// transform's inner products walk contiguous memory.
var cosTableT [BlockSize][BlockSize]float64

func init() {
	for k := 0; k < BlockSize; k++ {
		for n := 0; n < BlockSize; n++ {
			c := math.Cos(math.Pi * float64(2*n+1) * float64(k) / 16)
			cosTable[k][n] = c
			cosTableT[n][k] = c
		}
	}
}

// dot8 is the 8-term inner product, fully unrolled with left-to-right
// addition — the same order as a sequential accumulation loop starting
// from zero, so results stay bit-exact (float addition is
// order-sensitive; only the sign of a zero sum could differ, which the
// int32 rounding at the call sites erases).
func dot8(a, b *[BlockSize]float64) float64 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] +
		a[4]*b[4] + a[5]*b[5] + a[6]*b[6] + a[7]*b[7]
}

// FDCT computes the forward 8×8 DCT of src into dst (may alias).
// Output coefficients are scaled ×4 relative to the orthonormal DCT so
// that integer quantization keeps enough precision.
func FDCT(dst, src *Block) {
	var tmp [blockLen]float64
	// Rows: convert each row once, then unrolled inner products against
	// the contiguous cosine rows.
	for y := 0; y < BlockSize; y++ {
		var in [BlockSize]float64
		or := int32(0)
		for n, v := range src[y*BlockSize : y*BlockSize+BlockSize] {
			or |= v
			in[n] = float64(v)
		}
		out := tmp[y*BlockSize : y*BlockSize+BlockSize]
		// A zero input row (common in residual blocks) transforms to a row
		// of signed zeros; writing +0 can differ only in zero sign, which
		// the column pass's zero test treats identically and the final
		// rounding erases.
		if or == 0 {
			for k := 0; k < BlockSize; k++ {
				out[k] = 0
			}
			continue
		}
		for k := 0; k < BlockSize; k++ {
			s := dot8(&in, &cosTable[k])
			if k == 0 {
				s *= math.Sqrt2 / 2
			}
			out[k] = s / 2
		}
	}
	// Columns: gather the strided column once per x. An all-zero column
	// (common for residual blocks) yields inner products that are sums of
	// signed zeros, and RoundToEven maps either zero sign to 0, so the
	// skip is bit-exact.
	for x := 0; x < BlockSize; x++ {
		var in [BlockSize]float64
		zero := true
		for n := 0; n < BlockSize; n++ {
			v := tmp[n*BlockSize+x]
			if v != 0 {
				zero = false
			}
			in[n] = v
		}
		if zero {
			for k := 0; k < BlockSize; k++ {
				dst[k*BlockSize+x] = 0
			}
			continue
		}
		for k := 0; k < BlockSize; k++ {
			s := dot8(&in, &cosTable[k])
			if k == 0 {
				s *= math.Sqrt2 / 2
			}
			dst[k*BlockSize+x] = int32(math.RoundToEven(s / 2))
		}
	}
}

// IDCT computes the inverse 8×8 DCT of src into dst (may alias),
// undoing FDCT's scaling. The k==0 basis scaling is applied once per
// column/row instead of once per output sample — the identical multiply,
// hoisted — and the inner products run against the transposed table.
func IDCT(dst, src *Block) {
	var tmp [blockLen]float64
	// Both passes accumulate only the nonzero terms of each inner product,
	// in ascending index order — the same term order as dot8, so every
	// nonzero partial sum is bit-identical. Skipped zero terms can change
	// only the sign of an all-zero prefix (IEEE: x + ±0 == x for x != 0,
	// and -0 + +0 == +0), and zero signs are erased by the RoundToEven
	// int32 conversion at the end, so results match the dense transform
	// exactly. Quantized blocks typically carry a handful of nonzero
	// coefficients, which makes this the dominant IDCT saving.
	//
	// A single pass over the block records which entries are nonzero;
	// per-column population counts then route each column without a
	// strided re-scan.
	var mask uint64
	for i, v := range src {
		if v != 0 {
			mask |= 1 << uint(i)
		}
	}
	// Columns.
	for x := 0; x < BlockSize; x++ {
		const colBits = 0x0101010101010101
		nz := bits.OnesCount64(mask >> uint(x) & colBits)
		if nz == 0 {
			for n := 0; n < BlockSize; n++ {
				tmp[n*BlockSize+x] = 0
			}
			continue
		}
		var c [BlockSize]float64
		for k := 0; k < BlockSize; k++ {
			c[k] = float64(src[k*BlockSize+x])
		}
		switch {
		case nz >= 5:
			// Dense column: the unrolled inner product wins.
			c[0] *= math.Sqrt2 / 2
			for n := 0; n < BlockSize; n++ {
				tmp[n*BlockSize+x] = dot8(&c, &cosTableT[n]) / 2
			}
		default:
			sparse8(&c, c[:])
			for n := 0; n < BlockSize; n++ {
				tmp[n*BlockSize+x] = c[n] / 2
			}
		}
	}
	// Rows.
	for y := 0; y < BlockSize; y++ {
		var c [BlockSize]float64
		nz := 0
		for k, v := range tmp[y*BlockSize : y*BlockSize+BlockSize] {
			if v != 0 {
				nz++
			}
			c[k] = v
		}
		switch {
		case nz == 0:
			for n := 0; n < BlockSize; n++ {
				dst[y*BlockSize+n] = 0
			}
		case nz >= 5:
			c[0] *= math.Sqrt2 / 2
			for n := 0; n < BlockSize; n++ {
				dst[y*BlockSize+n] = int32(math.RoundToEven(dot8(&c, &cosTableT[n]) / 2))
			}
		default:
			sparse8(&c, c[:])
			for n := 0; n < BlockSize; n++ {
				dst[y*BlockSize+n] = int32(math.RoundToEven(c[n] / 2))
			}
		}
	}
}

// sparse8 overwrites out with the 8-point inverse inner products of the
// coefficient vector c, accumulating only nonzero terms in ascending index
// order — the same order as dot8, so every nonzero partial sum is
// bit-identical, and skipped zero terms change at most the sign of a zero
// result, which callers erase at the int32 rounding. c and out may alias
// because c is consumed before out is first written.
func sparse8(c *[BlockSize]float64, out []float64) {
	var acc [BlockSize]float64
	any := false
	for k := 0; k < BlockSize; k++ {
		cv := c[k]
		if cv == 0 {
			continue
		}
		if k == 0 {
			cv *= math.Sqrt2 / 2
		}
		t := &cosTable[k]
		if !any {
			any = true
			for n := 0; n < BlockSize; n++ {
				acc[n] = cv * t[n]
			}
			continue
		}
		for n := 0; n < BlockSize; n++ {
			acc[n] += cv * t[n]
		}
	}
	copy(out[:BlockSize], acc[:])
}

// zigzag[i] is the row-major index of the i-th coefficient in zigzag
// scan order (low frequencies first).
var zigzag = [blockLen]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// Zigzag reorders a row-major block into zigzag scan order.
func Zigzag(dst []int32, src *Block) {
	for i := 0; i < blockLen; i++ {
		dst[i] = src[zigzag[i]]
	}
}

// Unzigzag reverses Zigzag.
func Unzigzag(dst *Block, src []int32) {
	for i := 0; i < blockLen; i++ {
		dst[zigzag[i]] = src[i]
	}
}

// UnzigzagDequant fuses Unzigzag and Dequantize into one pass: each scan
// coefficient lands at its row-major position already multiplied by the
// matching table entry. Identical to Unzigzag followed by Dequantize.
func UnzigzagDequant(dst *Block, src []int32, table *[blockLen]int32) {
	for i := 0; i < blockLen; i++ {
		z := zigzag[i]
		dst[z] = src[i] * table[z]
	}
}

// baseQuant is a JPEG-style luma quantization matrix biased toward
// preserving low frequencies.
var baseQuant = [blockLen]int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// QuantTable returns the quantization matrix for quality q in [1, 100].
// Higher quality yields smaller divisors (finer quantization), following
// the JPEG quality-scaling convention.
func QuantTable(q int) [blockLen]int32 {
	if q < 1 {
		q = 1
	} else if q > 100 {
		q = 100
	}
	var scale int32
	if q < 50 {
		scale = int32(5000 / q)
	} else {
		scale = int32(200 - 2*q)
	}
	var t [blockLen]int32
	for i, b := range baseQuant {
		v := (b*scale + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 1024 {
			v = 1024
		}
		t[i] = v
	}
	return t
}

// Quantize divides each coefficient by the matching table entry with
// round-to-nearest, in place.
func Quantize(b *Block, table *[blockLen]int32) {
	for i := range b {
		q := table[i]
		v := b[i]
		if v >= 0 {
			b[i] = (v + q/2) / q
		} else {
			b[i] = -((-v + q/2) / q)
		}
	}
}

// Quantizer is a quantization table with precomputed fixed-point
// reciprocals, replacing the per-coefficient integer division of Quantize
// with a multiply and shift on the block-encode hot path.
type Quantizer struct {
	Table [blockLen]int32
	rcp   [blockLen]uint64
	half  [blockLen]int32
}

// NewQuantizer builds the quantizer for quality q (see QuantTable).
func NewQuantizer(q int) Quantizer {
	var z Quantizer
	z.Table = QuantTable(q)
	for i, d := range z.Table {
		// Round-up reciprocal: with M = floor(2^32/d)+1 and error
		// e = M*d - 2^32 <= d <= 1024, (n*M)>>32 equals n/d exactly for
		// every n <= 2^32/e >= 2^22. Quantizer numerators are DCT
		// coefficients plus d/2, bounded well under 2^13.
		z.rcp[i] = (1<<32)/uint64(d) + 1
		z.half[i] = d / 2
	}
	return z
}

// QuantizeZigzag quantizes b with round-to-nearest straight into zigzag
// scan order in dst (64 entries) and returns how many of the quantized
// coefficients are non-zero: one pass in place of Quantize(b, &z.Table)
// followed by Zigzag and a count, with a bit-identical dst.
func (z *Quantizer) QuantizeZigzag(dst []int32, b *Block) int {
	dst = dst[:blockLen]
	nz := 0
	for i := range dst {
		k := zigzag[i]
		v := b[k]
		// Branch-free sign handling: s is 0 or -1, (v^s)-s is |v|, and
		// (q^s)-s gives q v's sign. q >= 0, so -q's sign bit marks q != 0.
		s := v >> 31
		q := int32((uint64((v^s)-s+z.half[k]) * z.rcp[k]) >> 32)
		nz += int(uint32(-q) >> 31)
		dst[i] = (q ^ s) - s
	}
	return nz
}

// Dequantize multiplies each coefficient by the matching table entry,
// in place.
func Dequantize(b *Block, table *[blockLen]int32) {
	for i := range b {
		b[i] *= table[i]
	}
}
