// Package transform implements the 8×8 forward and inverse DCT,
// quantization, and zigzag scanning shared by the image codec (intra
// blocks) and the video codec (residual blocks).
//
// The transform is fixed-point: the Loeffler–Ligtenberg–Moschytz (LLM)
// factorisation of libjpeg's "islow" DCT (jfdctint.c / jidctint.c), with
// 13-bit constants and 2 extra bits kept between the passes. Coefficients
// come out at the orthonormal DCT-II scale: a constant block of value v
// has DC 8·v. Every step is integer arithmetic, so codec bytes do not
// depend on the architecture: there is no float product for a compiler to
// fuse into a multiply-add.
package transform

import "sync/atomic"

// BlockSize is the transform block edge length in samples.
const BlockSize = 8

// blockLen is the number of samples per block.
const blockLen = BlockSize * BlockSize

// Block is an 8×8 sample block in row-major order. Forward input is
// level-shifted signed samples; inverse output is the same domain.
type Block [blockLen]int32

// Fixed-point constants of the islow transform, round(v·2^constBits)
// with ck = cos(kπ/16). passBits is the precision the first pass keeps
// for the second. Each 1-D pass of the factorisation scales its output by
// √8 relative to the orthonormal DCT; the second pass's descale removes
// that factor for both passes with 3 extra bits.
//
// Intermediates are int64, which holds every input a Block can carry,
// not just the codecs' residuals in [−255, 255] or the dequantized
// coefficients an encoder emits: an int32 input through the first pass
// stays under 2^50 and through the second under 2^60. Only the final
// store to int32 can wrap, on coefficients no encoder produces, and Go
// defines that wraparound, so hostile streams still decode
// deterministically.
const (
	constBits = 13
	passBits  = 2

	fix0_298631336 = 2446  // √2·(−c1+c3+c5−c7)
	fix0_390180644 = 3196  // √2·(c3−c5)
	fix0_541196100 = 4433  // √2·c6
	fix0_765366865 = 6270  // √2·(c2−c6)
	fix0_899976223 = 7373  // √2·(c3−c7)
	fix1_175875602 = 9633  // √2·c3
	fix1_501321110 = 12299 // √2·(c1+c3−c5−c7)
	fix1_847759065 = 15137 // √2·(c2+c6)
	fix1_961570560 = 16069 // √2·(c3+c5)
	fix2_053119869 = 16819 // √2·(c1+c3−c5+c7)
	fix2_562915447 = 20995 // √2·(c1+c3)
	fix3_072711026 = 25172 // √2·(c1+c3+c5−c7)
)

// descale divides x by 2^n, rounding half up.
func descale(x int64, n uint) int64 {
	return (x + 1<<(n-1)) >> n
}

// FDCT computes the forward 8×8 DCT of src into dst (may alias), at the
// orthonormal scale, rounded to integers. Zero rows and columns, common
// in residual blocks, transform to zeros without arithmetic.
func FDCT(dst, src *Block) {
	var ws [blockLen]int64
	// Pass 1: rows, scaled up by √8·2^passBits.
	for y := 0; y < BlockSize; y++ {
		s := (*[BlockSize]int32)(src[y*BlockSize:])
		if s[0]|s[1]|s[2]|s[3]|s[4]|s[5]|s[6]|s[7] == 0 {
			continue // ws is zeroed
		}
		o0, o1, o2, o3, o4, o5, o6, o7 := fdct8(int64(s[0]), int64(s[1]), int64(s[2]), int64(s[3]),
			int64(s[4]), int64(s[5]), int64(s[6]), int64(s[7]))
		const shift = constBits - passBits
		w := (*[BlockSize]int64)(ws[y*BlockSize:])
		w[0] = o0 << passBits
		w[1] = descale(o1, shift)
		w[2] = descale(o2, shift)
		w[3] = descale(o3, shift)
		w[4] = o4 << passBits
		w[5] = descale(o5, shift)
		w[6] = descale(o6, shift)
		w[7] = descale(o7, shift)
	}
	// Pass 2: columns; the descale removes passBits and both passes' √8.
	for x := 0; x < BlockSize; x++ {
		d0, d1, d2, d3 := ws[0*BlockSize+x], ws[1*BlockSize+x], ws[2*BlockSize+x], ws[3*BlockSize+x]
		d4, d5, d6, d7 := ws[4*BlockSize+x], ws[5*BlockSize+x], ws[6*BlockSize+x], ws[7*BlockSize+x]
		if d0|d1|d2|d3|d4|d5|d6|d7 == 0 {
			for k := 0; k < BlockSize; k++ {
				dst[k*BlockSize+x] = 0
			}
			continue
		}
		o0, o1, o2, o3, o4, o5, o6, o7 := fdct8(d0, d1, d2, d3, d4, d5, d6, d7)
		const shift = constBits + passBits + 3
		dst[0*BlockSize+x] = int32(descale(o0, passBits+3))
		dst[1*BlockSize+x] = int32(descale(o1, shift))
		dst[2*BlockSize+x] = int32(descale(o2, shift))
		dst[3*BlockSize+x] = int32(descale(o3, shift))
		dst[4*BlockSize+x] = int32(descale(o4, passBits+3))
		dst[5*BlockSize+x] = int32(descale(o5, shift))
		dst[6*BlockSize+x] = int32(descale(o6, shift))
		dst[7*BlockSize+x] = int32(descale(o7, shift))
	}
}

// fdct8 is the 1-D LLM forward transform of d0..d7, scaled up by √8; the
// outputs other than 0 and 4 carry 2^constBits more, and the caller
// descales.
func fdct8(d0, d1, d2, d3, d4, d5, d6, d7 int64) (o0, o1, o2, o3, o4, o5, o6, o7 int64) {
	tmp0, tmp7 := d0+d7, d0-d7
	tmp1, tmp6 := d1+d6, d1-d6
	tmp2, tmp5 := d2+d5, d2-d5
	tmp3, tmp4 := d3+d4, d3-d4

	// Even part.
	tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
	tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2
	z1 := (tmp12 + tmp13) * fix0_541196100
	o0 = tmp10 + tmp11
	o4 = tmp10 - tmp11
	o2 = z1 + tmp13*fix0_765366865
	o6 = z1 - tmp12*fix1_847759065

	// Odd part.
	z1 = (tmp4 + tmp7) * -fix0_899976223
	z2 := (tmp5 + tmp6) * -fix2_562915447
	z3 := tmp4 + tmp6
	z4 := tmp5 + tmp7
	z5 := (z3 + z4) * fix1_175875602
	z3 = z3*-fix1_961570560 + z5
	z4 = z4*-fix0_390180644 + z5
	o7 = tmp4*fix0_298631336 + z1 + z3
	o5 = tmp5*fix2_053119869 + z2 + z4
	o3 = tmp6*fix3_072711026 + z2 + z3
	o1 = tmp7*fix1_501321110 + z1 + z4
	return
}

// IDCT computes the inverse 8×8 DCT of orthonormal-scale coefficients src
// into dst (may alias), undoing FDCT. A column or row whose AC terms are
// all zero, the common case for quantized blocks, reconstructs as its
// scaled DC alone, which is exactly what the full butterfly computes for
// it.
func IDCT(dst, src *Block) {
	var ws [blockLen]int64
	// Pass 1: columns, scaled up by √8·2^passBits.
	for x := 0; x < BlockSize; x++ {
		c0, c1, c2, c3 := src[0*BlockSize+x], src[1*BlockSize+x], src[2*BlockSize+x], src[3*BlockSize+x]
		c4, c5, c6, c7 := src[4*BlockSize+x], src[5*BlockSize+x], src[6*BlockSize+x], src[7*BlockSize+x]
		if c1|c2|c3|c4|c5|c6|c7 == 0 {
			dc := int64(c0) << passBits
			for n := 0; n < BlockSize; n++ {
				ws[n*BlockSize+x] = dc
			}
			continue
		}
		o0, o1, o2, o3, o4, o5, o6, o7 := idct8(int64(c0), int64(c1), int64(c2), int64(c3),
			int64(c4), int64(c5), int64(c6), int64(c7))
		const shift = constBits - passBits
		ws[0*BlockSize+x] = descale(o0, shift)
		ws[1*BlockSize+x] = descale(o1, shift)
		ws[2*BlockSize+x] = descale(o2, shift)
		ws[3*BlockSize+x] = descale(o3, shift)
		ws[4*BlockSize+x] = descale(o4, shift)
		ws[5*BlockSize+x] = descale(o5, shift)
		ws[6*BlockSize+x] = descale(o6, shift)
		ws[7*BlockSize+x] = descale(o7, shift)
	}
	// Pass 2: rows; the descale removes passBits and both passes' √8.
	for y := 0; y < BlockSize; y++ {
		w := (*[BlockSize]int64)(ws[y*BlockSize:])
		d := (*[BlockSize]int32)(dst[y*BlockSize:])
		if w[1]|w[2]|w[3]|w[4]|w[5]|w[6]|w[7] == 0 {
			v := int32(descale(w[0], passBits+3))
			for n := range d {
				d[n] = v
			}
			continue
		}
		o0, o1, o2, o3, o4, o5, o6, o7 := idct8(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
		const shift = constBits + passBits + 3
		d[0] = int32(descale(o0, shift))
		d[1] = int32(descale(o1, shift))
		d[2] = int32(descale(o2, shift))
		d[3] = int32(descale(o3, shift))
		d[4] = int32(descale(o4, shift))
		d[5] = int32(descale(o5, shift))
		d[6] = int32(descale(o6, shift))
		d[7] = int32(descale(o7, shift))
	}
}

// idct8 is the 1-D LLM inverse transform of c0..c7, scaled up by
// √8·2^constBits; the caller descales.
func idct8(c0, c1, c2, c3, c4, c5, c6, c7 int64) (o0, o1, o2, o3, o4, o5, o6, o7 int64) {
	// Even part.
	z1 := (c2 + c6) * fix0_541196100
	tmp2 := z1 - c6*fix1_847759065
	tmp3 := z1 + c2*fix0_765366865
	tmp0 := (c0 + c4) << constBits
	tmp1 := (c0 - c4) << constBits
	tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
	tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2

	// Odd part.
	z1 = (c7 + c1) * -fix0_899976223
	z2 := (c5 + c3) * -fix2_562915447
	z3 := c7 + c3
	z4 := c5 + c1
	z5 := (z3 + z4) * fix1_175875602
	z3 = z3*-fix1_961570560 + z5
	z4 = z4*-fix0_390180644 + z5
	tmp0 = c7*fix0_298631336 + z1 + z3
	tmp1 = c5*fix2_053119869 + z2 + z4
	tmp2 = c3*fix3_072711026 + z2 + z3
	tmp3 = c1*fix1_501321110 + z1 + z4

	return tmp10 + tmp3, tmp11 + tmp2, tmp12 + tmp1, tmp13 + tmp0,
		tmp13 - tmp0, tmp12 - tmp1, tmp11 - tmp2, tmp10 - tmp3
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

// newQuantizer builds the quantizer for quality q (see QuantTable);
// QuantizerFor shares one per quality.
func newQuantizer(q int) Quantizer {
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

// quantizers caches newQuantizer by quality for QuantizerFor.
var quantizers [101]atomic.Pointer[Quantizer]

// QuantizerFor returns the shared quantizer for quality q (clamped to
// [1, 100] as in QuantTable). The encoders code every frame and anchor
// with one and the decoders dequantize with its Table; its tables depend
// only on q, so they are built once per quality instead of once per
// frame. The result must not be modified.
func QuantizerFor(q int) *Quantizer {
	q = min(max(q, 1), 100)
	if z := quantizers[q].Load(); z != nil {
		return z
	}
	z := newQuantizer(q)
	quantizers[q].CompareAndSwap(nil, &z)
	return quantizers[q].Load()
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
