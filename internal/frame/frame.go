// Package frame provides planar YUV 4:2:0 video frames and the pixel
// operations the rest of the system is built on: plane arithmetic,
// bilinear and bicubic resampling, and block-based motion-compensated
// warping.
//
// Frames are the currency of the whole pipeline. The synthetic video
// generator produces them, the video and image codecs compress them, the
// super-resolution path upscales them, and the quality metrics compare
// them. All samples are 8-bit.
package frame

import (
	"errors"
	"fmt"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// Plane is a single 8-bit sample plane with an explicit stride so that
// sub-rectangles can alias a parent plane without copying.
type Plane struct {
	W, H   int
	Stride int
	Pix    []byte
}

// NewPlane allocates a zeroed W×H plane with Stride == W.
func NewPlane(w, h int) Plane {
	return Plane{W: w, H: h, Stride: w, Pix: make([]byte, w*h)}
}

// At returns the sample at (x, y), clamping coordinates to the plane
// boundary. Clamped access keeps motion compensation and filtering code
// free of per-edge special cases, matching common codec behaviour
// (border extension).
func (p *Plane) At(x, y int) byte {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.Stride+x]
}

// Set writes the sample at (x, y). Out-of-bounds writes are ignored.
func (p *Plane) Set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= p.W || y >= p.H {
		return
	}
	p.Pix[y*p.Stride+x] = v
}

// Row returns the y-th row as a slice of length W.
func (p *Plane) Row(y int) []byte {
	return p.Pix[y*p.Stride : y*p.Stride+p.W]
}

// Fill sets every sample in the plane to v.
func (p *Plane) Fill(v byte) {
	for y := 0; y < p.H; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = v
		}
	}
}

// Clone returns a deep copy with a compact stride.
func (p *Plane) Clone() Plane {
	q := NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		copy(q.Row(y), p.Row(y))
	}
	return q
}

// CopyFrom copies src into p. Both planes must have identical dimensions.
func (p *Plane) CopyFrom(src *Plane) error {
	if p.W != src.W || p.H != src.H {
		return fmt.Errorf("frame: copy dimension mismatch %dx%d != %dx%d", p.W, p.H, src.W, src.H)
	}
	for y := 0; y < p.H; y++ {
		copy(p.Row(y), src.Row(y))
	}
	return nil
}

// Frame is a planar YUV 4:2:0 picture. Chroma planes are half resolution
// in both dimensions (rounded up for odd sizes).
type Frame struct {
	W, H    int
	Y, U, V Plane
}

// ErrBadDimensions reports a non-positive frame size.
var ErrBadDimensions = errors.New("frame: dimensions must be positive")

// New allocates a zeroed (black, neutral chroma) frame.
func New(w, h int) (*Frame, error) {
	if w <= 0 || h <= 0 {
		return nil, ErrBadDimensions
	}
	cw, ch := (w+1)/2, (h+1)/2
	f := &Frame{
		W: w, H: h,
		Y: NewPlane(w, h),
		U: NewPlane(cw, ch),
		V: NewPlane(cw, ch),
	}
	f.U.Fill(128)
	f.V.Fill(128)
	return f, nil
}

// MustNew is New for statically valid sizes; it panics on error.
func MustNew(w, h int) *Frame {
	f, err := New(w, h)
	if err != nil {
		panic(err)
	}
	return f
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	return &Frame{W: f.W, H: f.H, Y: f.Y.Clone(), U: f.U.Clone(), V: f.V.Clone()}
}

// Planes returns the three planes in Y, U, V order.
func (f *Frame) Planes() [3]*Plane {
	return [3]*Plane{&f.Y, &f.U, &f.V}
}

// SizeBytes returns the raw (uncompressed) size of the frame in bytes.
func (f *Frame) SizeBytes() int {
	return len(f.Y.Pix) + len(f.U.Pix) + len(f.V.Pix)
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// AbsDiffSum returns the sum of absolute luma differences between two
// equally sized frames. It is the SAD metric used by motion estimation
// and by tests asserting reconstruction fidelity.
func AbsDiffSum(a, b *Frame) (int64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("frame: SAD dimension mismatch %dx%d != %dx%d", a.W, a.H, b.W, b.H)
	}
	// Integer sums are associative, so per-chunk partials folded in any
	// order are exact; the chunk layout (fixed by grain, not worker count)
	// keeps everything deterministic anyway.
	grain := par.RowGrain(a.W)
	partials := make([]int64, par.Chunks(a.H, grain))
	par.For(a.H, grain, func(yLo, yHi int) {
		var s int64
		for y := yLo; y < yHi; y++ {
			ra, rb := a.Y.Row(y), b.Y.Row(y)
			for x := range ra {
				d := int(ra[x]) - int(rb[x])
				if d < 0 {
					d = -d
				}
				s += int64(d)
			}
		}
		partials[yLo/grain] = s
	})
	var sum int64
	for _, s := range partials {
		sum += s
	}
	return sum, nil
}
