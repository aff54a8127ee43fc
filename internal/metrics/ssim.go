package metrics

import (
	"fmt"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
)

// SSIM computes the mean structural similarity index over the luma plane
// using the standard 8×8 non-overlapping window formulation with the
// usual stabilizing constants (K1 = 0.01, K2 = 0.03, L = 255). Values are
// in [-1, 1]; 1 means identical.
//
// Window scores are computed concurrently into indexed slots and folded
// serially in raster order, so the floating-point total is bit-identical
// to a serial evaluation for any worker count.
func SSIM(a, b *frame.Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("metrics: SSIM size mismatch %dx%d != %dx%d", a.W, a.H, b.W, b.H)
	}
	const win = 8
	const (
		c1 = (0.01 * 255) * (0.01 * 255)
		c2 = (0.03 * 255) * (0.03 * 255)
	)
	wx, wy := a.W/win, a.H/win
	windows := wx * wy
	if windows == 0 {
		return 0, fmt.Errorf("metrics: frame %dx%d smaller than the SSIM window", a.W, a.H)
	}
	vals := make([]float64, windows)
	par.For(wy, par.RowGrain(a.W), func(rLo, rHi int) {
		for wr := rLo; wr < rHi; wr++ {
			by := wr * win
			for wc := 0; wc < wx; wc++ {
				bx := wc * win
				var sumA, sumB, sumAA, sumBB, sumAB float64
				for y := 0; y < win; y++ {
					ra := a.Y.Row(by + y)[bx : bx+win]
					rb := b.Y.Row(by + y)[bx : bx+win]
					for x := 0; x < win; x++ {
						pa, pb := float64(ra[x]), float64(rb[x])
						sumA += pa
						sumB += pb
						sumAA += float64(pa * pa)
						sumBB += float64(pb * pb)
						sumAB += float64(pa * pb)
					}
				}
				n := float64(win * win)
				// n is a power of two, so the compiler turns each /n into a
				// product; the conversions keep those from fusing too.
				muA, muB := float64(sumA/n), float64(sumB/n)
				varA := float64(sumAA/n) - float64(muA*muA)
				varB := float64(sumBB/n) - float64(muB*muB)
				cov := float64(sumAB/n) - float64(muA*muB)
				vals[wr*wx+wc] = ((float64(2*muA*muB) + c1) * (float64(2*cov) + c2)) /
					((float64(muA*muA) + float64(muB*muB) + c1) * (varA + varB + c2))
			}
		}
	})
	var total float64
	for _, v := range vals {
		total += v
	}
	return total / float64(windows), nil
}

// MeanSSIM averages SSIM over paired frame sequences.
func MeanSSIM(ref, got []*frame.Frame) (float64, error) {
	if len(ref) != len(got) {
		return 0, fmt.Errorf("metrics: sequence length mismatch %d != %d", len(ref), len(got))
	}
	if len(ref) == 0 {
		return 0, fmt.Errorf("metrics: empty sequence")
	}
	vals := make([]float64, len(ref))
	errs := make([]error, len(ref))
	par.For(len(ref), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i], errs[i] = SSIM(ref[i], got[i])
		}
	})
	var sum float64
	for i, s := range vals {
		if errs[i] != nil {
			return 0, errs[i]
		}
		sum += s
	}
	return sum / float64(len(ref)), nil
}
