package vcodec

import (
	"math"
	"sync"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
)

// Motion estimation: a three-step logarithmic search per block against
// both reference slots, picking the (reference, vector) pair with the
// lowest SAD. The zero vector is always evaluated so static content costs
// nothing to represent.
//
// Blocks are searched concurrently on the worker pool — each block's
// result lands in its own slot of the output slices — and candidate SADs
// terminate early once they exceed the block's current best. Both
// optimizations are exact: a terminated candidate reports a value at
// least as large as the running best, so it loses the strict comparison
// exactly as its full sum would, and winners are always fully summed.

// blockSAD returns the sum of absolute luma differences between the block
// at (x0, y0) in src and the block displaced by (dx, dy) in ref, with
// clamped (border-extended) reference access. Accumulation stops at the
// end of any row where the partial sum has already reached limit; the
// returned value is then >= limit but otherwise unspecified.
func blockSAD(src, ref *frame.Plane, x0, y0, w, h, dx, dy, limit int) int {
	sad := 0
	if x0+dx >= 0 && y0+dy >= 0 && x0+w+dx <= ref.W && y0+h+dy <= ref.H {
		// Fully in-bounds displacement: row slices avoid the per-sample
		// clamping of Plane.At, and the 4-wide unrolled inner loop keeps
		// four independent difference chains in flight. Integer addition
		// reassociates freely, and the row-end early exit is unchanged,
		// so the result is exactly the scalar loop's.
		for y := 0; y < h; y++ {
			srow := src.Row(y0 + y)[x0 : x0+w]
			rrow := ref.Row(y0 + y + dy)[x0+dx : x0+dx+w][:len(srow)]
			x := 0
			for ; x+4 <= len(srow); x += 4 {
				// Branchless |d|: the arithmetic-shift mask is all ones
				// exactly when d is negative, and (d^m)-m negates then.
				d0 := int(srow[x]) - int(rrow[x])
				d1 := int(srow[x+1]) - int(rrow[x+1])
				d2 := int(srow[x+2]) - int(rrow[x+2])
				d3 := int(srow[x+3]) - int(rrow[x+3])
				m0 := d0 >> 63
				m1 := d1 >> 63
				m2 := d2 >> 63
				m3 := d3 >> 63
				sad += ((d0 ^ m0) - m0) + ((d1 ^ m1) - m1) + ((d2 ^ m2) - m2) + ((d3 ^ m3) - m3)
			}
			for ; x < len(srow); x++ {
				d := int(srow[x]) - int(rrow[x])
				if d < 0 {
					d = -d
				}
				sad += d
			}
			if sad >= limit {
				return sad
			}
		}
		return sad
	}
	// Partially out-of-bounds displacement: clamp the reference row index
	// once per row and split each row into the clamped-left, in-bounds,
	// and clamped-right x segments. Per-segment sums visit the same
	// samples At would, so the row totals — and therefore the row-end
	// early-exit decisions and the returned value — are identical.
	base := x0 + dx
	xlo := 0
	if base < 0 {
		xlo = -base
		if xlo > w {
			xlo = w
		}
	}
	xhi := ref.W - base
	if xhi > w {
		xhi = w
	}
	if xhi < xlo {
		xhi = xlo
	}
	for y := 0; y < h; y++ {
		srow := src.Row(y0 + y)[x0 : x0+w]
		ry := y0 + y + dy
		if ry < 0 {
			ry = 0
		} else if ry >= ref.H {
			ry = ref.H - 1
		}
		rrow := ref.Row(ry)
		left := int(rrow[0])
		right := int(rrow[ref.W-1])
		x := 0
		for ; x < xlo; x++ {
			d := int(srow[x]) - left
			m := d >> 63
			sad += (d ^ m) - m
		}
		for ; x < xhi; x++ {
			d := int(srow[x]) - int(rrow[base+x])
			m := d >> 63
			sad += (d ^ m) - m
		}
		for ; x < w; x++ {
			d := int(srow[x]) - right
			m := d >> 63
			sad += (d ^ m) - m
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// sadCache memoizes candidate SADs within one searchBlock call, keyed by
// displacement. The refinement loop revisits vectors as the center moves;
// a cached value decides each comparison exactly as a fresh evaluation
// would: winners are always fully summed (so their cached values are
// exact), and a cached loser is >= the best SAD at its evaluation time,
// which only shrinks — while the true SAD is >= any early-exit partial
// sum — so both the cached and a fresh value lose the strict comparison.
type sadCache struct {
	side int
	vals []int
	gen  []uint32
	cur  uint32
}

func newSADCache(searchRange int) *sadCache {
	side := 2*searchRange + 1
	return &sadCache{
		side: side,
		vals: make([]int, side*side),
		gen:  make([]uint32, side*side),
	}
}

// sadCachePool recycles caches across blocks; generation stamps make a
// recycled cache indistinguishable from a fresh one.
var sadCachePool sync.Pool

func borrowSADCache(searchRange int) *sadCache {
	if c, _ := sadCachePool.Get().(*sadCache); c != nil && c.side == 2*searchRange+1 {
		return c
	}
	return newSADCache(searchRange)
}

// searchBlock runs a three-step search around the zero vector and returns
// the best vector and its (exact) SAD.
func searchBlock(src, ref *frame.Plane, x0, y0, w, h, searchRange int, cache *sadCache) (frame.MotionVector, int) {
	cache.cur++
	eval := func(dx, dy, limit int) int {
		idx := (dy+searchRange)*cache.side + (dx + searchRange)
		if cache.gen[idx] == cache.cur {
			return cache.vals[idx]
		}
		sad := blockSAD(src, ref, x0, y0, w, h, dx, dy, limit)
		cache.vals[idx] = sad
		cache.gen[idx] = cache.cur
		return sad
	}
	bestDX, bestDY := 0, 0
	bestSAD := eval(0, 0, math.MaxInt)
	step := searchRange
	for step >= 1 && bestSAD > 0 {
		// A zero SAD cannot be strictly improved, so the rings that would
		// all lose their comparisons are skipped (common for static
		// blocks, whose zero vector already matches exactly).
		improved := true
		for improved && bestSAD > 0 {
			improved = false
			for _, d := range [8][2]int{
				{-step, 0}, {step, 0}, {0, -step}, {0, step},
				{-step, -step}, {-step, step}, {step, -step}, {step, step},
			} {
				dx, dy := bestDX+d[0], bestDY+d[1]
				if dx < -searchRange || dx > searchRange || dy < -searchRange || dy > searchRange {
					continue
				}
				sad := eval(dx, dy, bestSAD)
				if sad < bestSAD {
					bestSAD, bestDX, bestDY = sad, dx, dy
					improved = true
				}
			}
		}
		step /= 2
	}
	return frame.MotionVector{DX: bestDX, DY: bestDY}, bestSAD
}

// estimateMotion searches every block of src against last and altref,
// returning per-block vectors, reference choices, and total SAD.
func estimateMotion(src *frame.Frame, last, altref *frame.Frame, grid frame.BlockGrid, searchRange int) (mvs []frame.MotionVector, refs []uint8, totalSAD int64) {
	n := grid.NumBlocks()
	mvs = make([]frame.MotionVector, n)
	refs = make([]uint8, n)
	sads := make([]int64, n)
	par.For(n, 1, func(lo, hi int) {
		cache := borrowSADCache(searchRange)
		defer sadCachePool.Put(cache)
		for i := lo; i < hi; i++ {
			x0, y0, w, h := grid.BlockRect(i)
			mvL, sadL := searchBlock(&src.Y, &last.Y, x0, y0, w, h, searchRange, cache)
			mv, sad, ref := mvL, sadL, RefLast
			if altref != nil {
				mvA, sadA := searchBlock(&src.Y, &altref.Y, x0, y0, w, h, searchRange, cache)
				// Prefer the altref on ties and near-ties: it is coded at a
				// finer quantizer, so equal-SAD prediction from it carries
				// less accumulated quantization noise (this is why VP9's
				// altref earns its high reference counts).
				margin := (w * h) / 64 // ~4 luma levels per 16x16 block
				if sadA <= sad+margin {
					mv, sad, ref = mvA, sadA, RefAltRef
				}
			}
			mvs[i], refs[i] = mv, ref
			sads[i] = int64(sad)
		}
	})
	for _, s := range sads {
		totalSAD += s
	}
	return mvs, refs, totalSAD
}

// predictFrame builds the motion-compensated prediction for a frame from
// the two reference slots using per-block reference choices. The result
// comes from the frame arena; ownership passes to the caller, and every
// sample is written (the block grid tiles the frame in luma and chroma —
// MEBlock is even, so chroma rectangles are disjoint and complete).
func predictFrame(last, altref *frame.Frame, grid frame.BlockGrid, mvs []frame.MotionVector, refs []uint8) *frame.Frame {
	pred := frame.Borrow(grid.FrameW, grid.FrameH)
	predictLoop.For(grid.Rows(), 1, predictArgs{pred: pred, last: last, altref: altref, grid: grid, mvs: mvs, refs: refs})
	return pred
}

// predictArgs is predictFrame's arguments to predictLoop.
type predictArgs struct {
	pred, last, altref *frame.Frame
	grid               frame.BlockGrid
	mvs                []frame.MotionVector
	refs               []uint8
}

// predictLoop warps the blocks of block rows [lo, hi) into the prediction.
var predictLoop = par.Loop[predictArgs]{Body: func(a *predictArgs, rLo, rHi int) {
	cols := a.grid.Cols()
	for i := rLo * cols; i < rHi*cols; i++ {
		ref := a.last
		if a.refs[i] == RefAltRef && a.altref != nil {
			ref = a.altref
		}
		x0, y0, w, h := a.grid.BlockRect(i)
		warpRectPlanes(a.pred, ref, x0, y0, w, h, a.mvs[i])
	}
}}

// warpRectPlanes copies one motion-compensated block (luma + chroma) from
// ref into dst.
func warpRectPlanes(dst, ref *frame.Frame, x0, y0, w, h int, mv frame.MotionVector) {
	warpRect(&dst.Y, &ref.Y, x0, y0, w, h, mv.DX, mv.DY)
	cx0, cy0, cw, ch := x0/2, y0/2, (w+1)/2, (h+1)/2
	warpRect(&dst.U, &ref.U, cx0, cy0, cw, ch, mv.DX/2, mv.DY/2)
	warpRect(&dst.V, &ref.V, cx0, cy0, cw, ch, mv.DX/2, mv.DY/2)
}

// warpRect copies one displaced rectangle between planes. Fully in-bounds
// displacements (the common case) reduce to per-row copies; otherwise the
// clamped At/Set path extends borders exactly as before.
func warpRect(dst, ref *frame.Plane, x0, y0, w, h, dx, dy int) {
	if x0+dx >= 0 && y0+dy >= 0 && x0+w+dx <= ref.W && y0+h+dy <= ref.H &&
		x0+w <= dst.W && y0+h <= dst.H {
		for y := 0; y < h; y++ {
			copy(dst.Row(y0 + y)[x0:x0+w], ref.Row(y0 + y + dy)[x0+dx:x0+dx+w])
		}
		return
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst.Set(x0+x, y0+y, ref.At(x0+x+dx, y0+y+dy))
		}
	}
}
