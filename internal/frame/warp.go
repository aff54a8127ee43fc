package frame

import (
	"fmt"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// MotionVector is a block displacement in full-pel units at the resolution
// of the frame it was estimated on. Selective super-resolution scales
// ingest-resolution vectors by the SR factor before warping high-resolution
// frames, which is why Scaled is provided.
type MotionVector struct {
	DX, DY int
}

// Scaled returns the vector multiplied by an integer up-scaling factor.
func (mv MotionVector) Scaled(factor int) MotionVector {
	return MotionVector{DX: mv.DX * factor, DY: mv.DY * factor}
}

// BlockGrid describes how a frame is tiled into square blocks. The last
// column/row of blocks may be cropped by the frame boundary.
type BlockGrid struct {
	FrameW, FrameH int
	Block          int
}

// Cols returns the number of block columns.
func (g BlockGrid) Cols() int { return (g.FrameW + g.Block - 1) / g.Block }

// Rows returns the number of block rows.
func (g BlockGrid) Rows() int { return (g.FrameH + g.Block - 1) / g.Block }

// NumBlocks returns Cols()*Rows().
func (g BlockGrid) NumBlocks() int { return g.Cols() * g.Rows() }

// BlockRect returns the pixel rectangle (x0, y0, w, h) of block index i in
// raster order, cropped to the frame.
func (g BlockGrid) BlockRect(i int) (x0, y0, w, h int) {
	cols := g.Cols()
	bx, by := i%cols, i/cols
	x0, y0 = bx*g.Block, by*g.Block
	w, h = g.Block, g.Block
	if x0+w > g.FrameW {
		w = g.FrameW - x0
	}
	if y0+h > g.FrameH {
		h = g.FrameH - y0
	}
	return
}

// WarpBlocks motion-compensates dst from ref: for each block in the grid,
// the block's pixels are copied from ref displaced by the block's motion
// vector. This is the client-side non-anchor reconstruction primitive:
// cheap, codec-guided reuse of a previously super-resolved frame.
//
// Chroma planes are warped with half-pel-truncated vectors, matching the
// 4:2:0 layout.
func WarpBlocks(dst, ref *Frame, grid BlockGrid, mvs []MotionVector) error {
	if dst.W != ref.W || dst.H != ref.H {
		return fmt.Errorf("frame: warp dimension mismatch %dx%d != %dx%d", dst.W, dst.H, ref.W, ref.H)
	}
	if len(mvs) != grid.NumBlocks() {
		return fmt.Errorf("frame: warp expects %d vectors, got %d", grid.NumBlocks(), len(mvs))
	}
	warpOne := func(i int) {
		mv := mvs[i]
		x0, y0, w, h := grid.BlockRect(i)
		warpRect(&dst.Y, &ref.Y, x0, y0, w, h, mv.DX, mv.DY)
		cx0, cy0 := x0/2, y0/2
		cw, ch := (w+1)/2, (h+1)/2
		warpRect(&dst.U, &ref.U, cx0, cy0, cw, ch, mv.DX/2, mv.DY/2)
		warpRect(&dst.V, &ref.V, cx0, cy0, cw, ch, mv.DX/2, mv.DY/2)
	}
	if grid.Block%2 != 0 {
		// Odd block sizes let the half-resolution chroma rectangles of
		// adjacent blocks overlap by one sample; keep the serial write
		// order so the result is well defined.
		for i := range mvs {
			warpOne(i)
		}
		return nil
	}
	// Even block sizes tile luma and chroma disjointly, so blocks can be
	// warped concurrently. Banding by whole block rows keeps each worker's
	// writes contiguous.
	cols := grid.Cols()
	par.For(grid.Rows(), 1, func(rLo, rHi int) {
		for i := rLo * cols; i < rHi*cols; i++ {
			warpOne(i)
		}
	})
	return nil
}

func warpRect(dst, ref *Plane, x0, y0, w, h, dx, dy int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst.Set(x0+x, y0+y, ref.At(x0+x+dx, y0+y+dy))
		}
	}
}

// AddResidual adds a signed residual frame (stored with +128 bias in an
// ordinary Frame) to dst, clamping to [0, 255]. Selective SR uses it to
// apply the bilinear-upscaled decoded residual on top of a warped frame.
func AddResidual(dst, residual *Frame) error {
	if dst.W != residual.W || dst.H != residual.H {
		return fmt.Errorf("frame: residual dimension mismatch %dx%d != %dx%d",
			dst.W, dst.H, residual.W, residual.H)
	}
	dp, rp := dst.Planes(), residual.Planes()
	for i := 0; i < 3; i++ {
		addResidualPlane(dp[i], rp[i])
	}
	return nil
}

func addResidualPlane(dst, res *Plane) {
	par.For(dst.H, par.RowGrain(dst.W), func(yLo, yHi int) {
		for y := yLo; y < yHi; y++ {
			dr, rr := dst.Row(y), res.Row(y)
			for x := range dr {
				dr[x] = clampByte(int(dr[x]) + int(rr[x]) - 128)
			}
		}
	})
}

// Diff writes (a - b + 128) clamped into a new frame, the biased-residual
// encoding consumed by AddResidual.
func Diff(a, b *Frame) (*Frame, error) {
	if a.W != b.W || a.H != b.H {
		return nil, fmt.Errorf("frame: diff dimension mismatch %dx%d != %dx%d", a.W, a.H, b.W, b.H)
	}
	out, err := New(a.W, a.H)
	if err != nil {
		return nil, err
	}
	ap, bp, op := a.Planes(), b.Planes(), out.Planes()
	for i := 0; i < 3; i++ {
		pa, pb, po := ap[i], bp[i], op[i]
		par.For(pa.H, par.RowGrain(pa.W), func(yLo, yHi int) {
			for y := yLo; y < yHi; y++ {
				ra, rb, ro := pa.Row(y), pb.Row(y), po.Row(y)
				for x := range ra {
					ro[x] = clampByte(int(ra[x]) - int(rb[x]) + 128)
				}
			}
		})
	}
	return out, nil
}
