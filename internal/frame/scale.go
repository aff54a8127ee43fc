package frame

// Resampling kernels. Downscaling uses box averaging (matching how ingest
// pipelines derive low-resolution ladders); upscaling offers bilinear (the
// cheap client-side path referenced by NEMO) and bicubic (the reference
// upscaler the super-resolution model is compared against).
//
// All kernels are row-banded across the worker pool: each worker owns a
// disjoint range of destination rows, so output is bit-identical for any
// worker count. The Into variants write a caller-provided destination
// (typically from the arena, see Borrow/Release) so steady-state scaling
// allocates nothing.

import (
	"fmt"
	"sync"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// ScaleBilinear resizes src to w×h with bilinear interpolation.
func ScaleBilinear(src *Frame, w, h int) (*Frame, error) {
	dst, err := New(w, h)
	if err != nil {
		return nil, err
	}
	ScaleBilinearInto(dst, src)
	return dst, nil
}

// ScaleBilinearInto resizes src into dst, which supplies the target
// dimensions. Every destination sample is overwritten.
func ScaleBilinearInto(dst, src *Frame) {
	sp, dp := src.Planes(), dst.Planes()
	for i := 0; i < 3; i++ {
		bilinearPlane(sp[i], dp[i])
	}
}

func bilinearPlane(src, dst *Plane) {
	if src.W == dst.W && src.H == dst.H {
		_ = dst.CopyFrom(src)
		return
	}
	// Fixed-point 16.16 stepping keeps the inner loop integer-only.
	const fp = 16
	sx := ((src.W - 1) << fp) / max(dst.W-1, 1)
	sy := ((src.H - 1) << fp) / max(dst.H-1, 1)
	par.For(dst.H, par.RowGrain(dst.W), func(yLo, yHi int) {
		for y := yLo; y < yHi; y++ {
			fy := y * sy
			y0 := fy >> fp
			wy := fy & ((1 << fp) - 1)
			row := dst.Row(y)
			for x := 0; x < dst.W; x++ {
				fx := x * sx
				x0 := fx >> fp
				wx := fx & ((1 << fp) - 1)
				p00 := int(src.At(x0, y0))
				p10 := int(src.At(x0+1, y0))
				p01 := int(src.At(x0, y0+1))
				p11 := int(src.At(x0+1, y0+1))
				top := p00<<fp + (p10-p00)*wx
				bot := p01<<fp + (p11-p01)*wx
				v := (top<<fp + (bot-top)*wy) >> (2 * fp)
				row[x] = clampByte(v)
			}
		}
	})
}

// ScaleBicubic resizes src to w×h with a Catmull-Rom bicubic kernel.
func ScaleBicubic(src *Frame, w, h int) (*Frame, error) {
	dst, err := New(w, h)
	if err != nil {
		return nil, err
	}
	ScaleBicubicInto(dst, src)
	return dst, nil
}

// ScaleBicubicInto resizes src into dst, which supplies the target
// dimensions. Every destination sample is overwritten.
func ScaleBicubicInto(dst, src *Frame) {
	sp, dp := src.Planes(), dst.Planes()
	for i := 0; i < 3; i++ {
		bicubicPlane(dp[i], sp[i], nil, 0)
	}
}

// ScaleBicubicBlendInto resizes src into dst with the bicubic kernel and,
// in the same pass, blends each sample toward target:
// alpha*target + (1-alpha)*upscaled, with alpha clamped to [0, 1] and
// applied in 8-bit fixed point. dst and target must have the same
// dimensions; every destination sample is overwritten, so dst may come
// from Borrow.
func ScaleBicubicBlendInto(dst, src, target *Frame, alpha float64) error {
	if dst.W != target.W || dst.H != target.H {
		return fmt.Errorf("frame: blend dimension mismatch %dx%d != %dx%d", dst.W, dst.H, target.W, target.H)
	}
	if alpha < 0 {
		alpha = 0
	} else if alpha > 1 {
		alpha = 1
	}
	a := int(float64(alpha*256) + 0.5)
	sp, dp, tp := src.Planes(), dst.Planes(), target.Planes()
	for i := 0; i < 3; i++ {
		bicubicPlane(dp[i], sp[i], tp[i], a)
	}
	return nil
}

// cubicWeights returns the four Catmull-Rom weights for fractional
// position t in [0, 1), scaled by 64 (6-bit fixed point). Every product
// is rounded before it is added (float64(x*y) + z) so no architecture
// fuses it into a multiply-add and the weights are the same everywhere.
func cubicWeights(t float64) [4]int {
	t2, t3 := float64(t*t), float64(t*t*t)
	w := [4]float64{
		float64(-0.5*t3) + t2 - float64(0.5*t),
		float64(1.5*t3) - float64(2.5*t2) + 1,
		float64(-1.5*t3) + float64(2*t2) + float64(0.5*t),
		float64(0.5*t3) - float64(0.5*t2),
	}
	var q [4]int
	sum := 0
	for i, f := range w {
		q[i] = int(float64(f*64) + 0.5)
		if f < 0 {
			q[i] = int(float64(f*64) - 0.5)
		}
		sum += q[i]
	}
	q[1] += 64 - sum // keep the kernel normalized after rounding
	return q
}

// bicubicTap is one destination coordinate's resolved kernel support:
// the four source taps with border clamping already applied, plus their
// Catmull-Rom weights.
type bicubicTap struct {
	idx [4]int
	w   [4]int
}

// axisTaps caches bicubicAxisTaps by geometry, the way the frame arena
// keys its pools by dimensions: a stream scales the same few plane sizes
// for its whole life. Cached slices are shared and never written.
var axisTaps sync.Map // [2]int{srcN, dstN} -> []bicubicTap

// bicubicAxisTaps resolves taps for one axis. Tap positions and weights
// depend only on the axis geometry, so resolving them once per
// (srcN, dstN) turns W×H weight evaluations and clamp checks per plane
// into a cache lookup.
func bicubicAxisTaps(srcN, dstN int) []bicubicTap {
	key := [2]int{srcN, dstN}
	if v, ok := axisTaps.Load(key); ok {
		return v.([]bicubicTap)
	}
	scale := float64(srcN) / float64(dstN)
	taps := make([]bicubicTap, dstN)
	for d := range taps {
		sf := float64((float64(d)+0.5)*scale) - 0.5
		s0 := int(sf)
		if sf < 0 {
			s0 = -1
		}
		w := cubicWeights(sf - float64(s0))
		for i := 0; i < 4; i++ {
			s := s0 - 1 + i
			if s < 0 {
				s = 0
			} else if s >= srcN {
				s = srcN - 1
			}
			taps[d].idx[i] = s
			taps[d].w[i] = w[i]
		}
	}
	v, _ := axisTaps.LoadOrStore(key, taps)
	return v.([]bicubicTap)
}

// scaleScratch recycles the separable filter's intermediate rows.
var scaleScratch par.SlabPool[int32]

// bicubicPlane scales src into dst. With a non-nil target each filtered
// sample is blended toward the matching target sample by a/256 before it
// is stored: (t*a + s*(256-a) + 128) >> 8.
func bicubicPlane(dst, src, target *Plane, a int) {
	if src.W == dst.W && src.H == dst.H {
		// Nothing to filter; a plain copy blends toward dst itself by 0,
		// which stores the source sample: (s*256 + 128) >> 8 == s.
		if target == nil {
			target = dst
		}
		for y := 0; y < dst.H; y++ {
			row, srow, trow := dst.Row(y), src.Row(y)[:dst.W], target.Row(y)[:dst.W]
			for x := range row {
				row[x] = byte((int(trow[x])*a + int(srow[x])*(256-a) + 128) >> 8)
			}
		}
		return
	}
	xTaps := bicubicAxisTaps(src.W, dst.W)
	yTaps := bicubicAxisTaps(src.H, dst.H)
	// Separable evaluation: filter horizontally once per source row, then
	// vertically once per destination row. The fused accumulation
	// Σy wy·(Σx wx·src) distributes over exact integer arithmetic, so each
	// output sample is bit-identical to the one-pass kernel while the
	// horizontal work amortizes across every destination row that shares a
	// source row.
	hbuf := scaleScratch.Get(src.H * dst.W)
	args := bicubicArgs{dst: dst, src: src, target: target, alpha: a, xTaps: xTaps, yTaps: yTaps, hbuf: hbuf}
	bicubicRowsLoop.For(src.H, par.RowGrain(dst.W), args)
	bicubicColsLoop.For(dst.H, par.RowGrain(dst.W), args)
	scaleScratch.Put(hbuf)
}

// bicubicArgs is what both passes of bicubicPlane read: its planes and
// blend weight (out of 256), both axes' taps, and the horizontally
// filtered rows (src.H rows of dst.W samples).
type bicubicArgs struct {
	dst, src, target *Plane
	alpha            int
	xTaps, yTaps     []bicubicTap
	hbuf             []int32
}

// bicubicRowsLoop filters source rows [yLo, yHi) horizontally into hbuf.
var bicubicRowsLoop = par.Loop[bicubicArgs]{Body: func(a *bicubicArgs, yLo, yHi int) {
	w := a.dst.W
	for y := yLo; y < yHi; y++ {
		srow := a.src.Row(y)
		hrow := a.hbuf[y*w : (y+1)*w]
		for x := range hrow {
			tx := &a.xTaps[x]
			hrow[x] = int32(tx.w[0]*int(srow[tx.idx[0]]) + tx.w[1]*int(srow[tx.idx[1]]) +
				tx.w[2]*int(srow[tx.idx[2]]) + tx.w[3]*int(srow[tx.idx[3]]))
		}
	}
}}

// bicubicColsLoop filters hbuf vertically into destination rows
// [yLo, yHi), blending toward the target when there is one.
var bicubicColsLoop = par.Loop[bicubicArgs]{Body: func(a *bicubicArgs, yLo, yHi int) {
	w, hbuf := a.dst.W, a.hbuf
	for y := yLo; y < yHi; y++ {
		ty := &a.yTaps[y]
		h0 := hbuf[ty.idx[0]*w : ty.idx[0]*w+w]
		h1 := hbuf[ty.idx[1]*w : ty.idx[1]*w+w]
		h2 := hbuf[ty.idx[2]*w : ty.idx[2]*w+w]
		h3 := hbuf[ty.idx[3]*w : ty.idx[3]*w+w]
		wy0, wy1, wy2, wy3 := ty.w[0], ty.w[1], ty.w[2], ty.w[3]
		row := a.dst.Row(y)
		// Plain scaling keeps its own store loop: the blend's extra
		// target load and multiplies show on BenchmarkScaleBicubic.
		if a.target == nil {
			for x := range row {
				acc := wy0*int(h0[x]) + wy1*int(h1[x]) + wy2*int(h2[x]) + wy3*int(h3[x])
				row[x] = clampByte((acc + 2048) >> 12)
			}
			continue
		}
		trow := a.target.Row(y)[:len(row)]
		for x := range row {
			acc := wy0*int(h0[x]) + wy1*int(h1[x]) + wy2*int(h2[x]) + wy3*int(h3[x])
			s := int(clampByte((acc + 2048) >> 12))
			row[x] = byte((int(trow[x])*a.alpha + s*(256-a.alpha) + 128) >> 8)
		}
	}
}}

// Downscale shrinks src by an integer factor using box averaging.
// The factor must evenly divide neither dimension; remainders are
// truncated, matching encoder-side crop behaviour.
func Downscale(src *Frame, factor int) (*Frame, error) {
	if factor <= 0 {
		return nil, ErrBadDimensions
	}
	w, h := src.W/factor, src.H/factor
	dst, err := New(w, h)
	if err != nil {
		return nil, err
	}
	sp, dp := src.Planes(), dst.Planes()
	for i := 0; i < 3; i++ {
		boxPlane(sp[i], dp[i], factor)
	}
	return dst, nil
}

func boxPlane(src, dst *Plane, factor int) {
	area := factor * factor
	par.For(dst.H, par.RowGrain(dst.W*area), func(yLo, yHi int) {
		for y := yLo; y < yHi; y++ {
			row := dst.Row(y)
			for x := 0; x < dst.W; x++ {
				sum := 0
				for j := 0; j < factor; j++ {
					for i := 0; i < factor; i++ {
						sum += int(src.At(x*factor+i, y*factor+j))
					}
				}
				row[x] = byte((sum + area/2) / area)
			}
		}
	})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
