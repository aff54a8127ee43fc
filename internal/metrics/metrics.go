// Package metrics implements the quality and statistics measures used by
// the evaluation: PSNR, a VMAF-proxy perceptual score, Bjontegaard rate
// difference (BD-rate), Pearson correlation, and percentile summaries.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
)

// MSE returns the luma mean squared error between two equally sized frames.
// Row bands are summed concurrently; the per-sample terms are integers
// (at most 255² per sample) whose running sums stay far below 2^53, so
// the float64 accumulation is exact and the result is bit-identical to a
// serial sum for any worker count.
func MSE(a, b *frame.Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("metrics: size mismatch %dx%d != %dx%d", a.W, a.H, b.W, b.H)
	}
	grain := par.RowGrain(a.W)
	partials := make([]int64, par.Chunks(a.H, grain))
	par.For(a.H, grain, func(yLo, yHi int) {
		var s int64
		for y := yLo; y < yHi; y++ {
			ra, rb := a.Y.Row(y), b.Y.Row(y)
			for x := range ra {
				d := int64(int(ra[x]) - int(rb[x]))
				s += d * d
			}
		}
		partials[yLo/grain] = s
	})
	var sum int64
	for _, s := range partials {
		sum += s
	}
	return float64(sum) / float64(a.W*a.H), nil
}

// PSNR returns the luma peak signal-to-noise ratio in dB. Identical
// frames report 100 dB (a conventional cap instead of +Inf).
func PSNR(a, b *frame.Frame) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	return PSNRFromMSE(mse), nil
}

// PSNRFromMSE converts a mean squared error to PSNR in dB, capped at 100.
func PSNRFromMSE(mse float64) float64 {
	if mse <= 0 {
		return 100
	}
	p := 10 * math.Log10(255*255/mse)
	if p > 100 {
		return 100
	}
	return p
}

// MeanPSNR returns the average PSNR over paired frame sequences.
func MeanPSNR(ref, got []*frame.Frame) (float64, error) {
	if len(ref) != len(got) {
		return 0, fmt.Errorf("metrics: sequence length mismatch %d != %d", len(ref), len(got))
	}
	if len(ref) == 0 {
		return 0, errors.New("metrics: empty sequence")
	}
	// Per-frame scores land in indexed slots and are folded serially in
	// frame order, so the floating-point sum matches the serial loop
	// exactly for any worker count.
	vals := make([]float64, len(ref))
	errs := make([]error, len(ref))
	par.For(len(ref), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i], errs[i] = PSNR(ref[i], got[i])
		}
	})
	var sum float64
	for i, p := range vals {
		if errs[i] != nil {
			return 0, errs[i]
		}
		sum += p
	}
	return sum / float64(len(ref)), nil
}

// VMAFProxy maps a PSNR measurement to a VMAF-like 0-100 perceptual score
// using a logistic curve fit to the paper's paired observations
// (PSNR 32.39 dB ↔ VMAF 34.27 for the original stream; ~40 dB ↔ ~86 for
// the enhanced streams in Table 5). It is explicitly a proxy: the paper's
// VMAF model is a learned ensemble we do not reproduce, but the proxy
// preserves the orderings the paper reports.
func VMAFProxy(psnr float64) float64 {
	// Logistic with midpoint ~34.3 dB and slope chosen to hit the two
	// anchor points above.
	v := 100 / (1 + math.Exp(-(psnr-34.3)/2.6))
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}

// RatePoint is one (bitrate, quality) sample on a rate-distortion curve.
type RatePoint struct {
	BitrateKbps float64
	PSNR        float64
}

// BDRate computes the Bjontegaard rate difference between a test curve and
// a reference curve: the average percent bitrate change of test relative
// to reference at equal quality. Positive values mean the test codec needs
// more bits. Both curves need at least two points and are integrated over
// the overlapping PSNR interval using a cubic (or lower-order) polynomial
// fit of log-rate as a function of PSNR.
func BDRate(ref, test []RatePoint) (float64, error) {
	if len(ref) < 2 || len(test) < 2 {
		return 0, errors.New("metrics: BD-rate needs >= 2 points per curve")
	}
	refC, err := fitLogRate(ref)
	if err != nil {
		return 0, err
	}
	testC, err := fitLogRate(test)
	if err != nil {
		return 0, err
	}
	lo := math.Max(minQuality(ref), minQuality(test))
	hi := math.Min(maxQuality(ref), maxQuality(test))
	if hi <= lo {
		return 0, errors.New("metrics: BD-rate curves do not overlap in quality")
	}
	intRef := integratePoly(refC, lo, hi)
	intTest := integratePoly(testC, lo, hi)
	avgDiff := (intTest - intRef) / (hi - lo)
	return (math.Pow(10, avgDiff) - 1) * 100, nil
}

func minQuality(pts []RatePoint) float64 {
	m := pts[0].PSNR
	for _, p := range pts[1:] {
		if p.PSNR < m {
			m = p.PSNR
		}
	}
	return m
}

func maxQuality(pts []RatePoint) float64 {
	m := pts[0].PSNR
	for _, p := range pts[1:] {
		if p.PSNR > m {
			m = p.PSNR
		}
	}
	return m
}

// fitLogRate fits log10(bitrate) = poly(psnr) by least squares. The
// polynomial order is min(3, len-1) as in the standard BD-rate procedure.
func fitLogRate(pts []RatePoint) ([]float64, error) {
	order := len(pts) - 1
	if order > 3 {
		order = 3
	}
	n := order + 1
	// Normal equations A^T A c = A^T y.
	ata := make([][]float64, n)
	for i := range ata {
		ata[i] = make([]float64, n)
	}
	aty := make([]float64, n)
	for _, p := range pts {
		if p.BitrateKbps <= 0 {
			return nil, fmt.Errorf("metrics: non-positive bitrate %v", p.BitrateKbps)
		}
		y := math.Log10(p.BitrateKbps)
		powers := make([]float64, n)
		powers[0] = 1
		for i := 1; i < n; i++ {
			powers[i] = powers[i-1] * p.PSNR
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ata[i][j] += float64(powers[i] * powers[j])
			}
			aty[i] += float64(powers[i] * y)
		}
	}
	return solveGauss(ata, aty)
}

// solveGauss solves a small dense linear system by Gaussian elimination
// with partial pivoting.
func solveGauss(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, errors.New("metrics: singular system in curve fit")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		x[r] = b[r]
		for c := r + 1; c < n; c++ {
			x[r] -= float64(a[r][c] * x[c])
		}
		x[r] /= a[r][r]
	}
	return x, nil
}

// integratePoly integrates a polynomial with coefficients c (c[0] +
// c[1]x + ...) from lo to hi.
func integratePoly(c []float64, lo, hi float64) float64 {
	eval := func(x float64) float64 {
		var s, p float64 = 0, x
		for i, ci := range c {
			s += ci * p / float64(i+1)
			p *= x
		}
		return s
	}
	return eval(hi) - eval(lo)
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("metrics: pearson length mismatch %d != %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, errors.New("metrics: pearson needs >= 2 samples")
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(len(x))
	my /= float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("metrics: pearson undefined for constant sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Summary holds distribution statistics used throughout the figures.
type Summary struct {
	Mean, Std, Min, Max float64
	P50, P90, P95       float64
}

// Summarize computes a Summary of xs. It returns an error for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, errors.New("metrics: summarize empty sample")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	var varSum float64
	for _, v := range s {
		d := v - mean
		varSum += float64(d * d)
	}
	return Summary{
		Mean: mean,
		Std:  math.Sqrt(varSum / float64(len(s))),
		Min:  s[0],
		Max:  s[len(s)-1],
		P50:  Percentile(s, 50),
		P90:  Percentile(s, 90),
		P95:  Percentile(s, 95),
	}, nil
}

// Percentile returns the p-th percentile (0-100) of a sorted sample using
// linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := float64(p / 100 * float64(len(sorted)-1))
	lo := int(pos)
	fracPart := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + float64(fracPart*(sorted[lo+1]-sorted[lo]))
}

// Normalize01 linearly rescales xs to span [0, 1]. A constant sample maps
// to all zeros.
func Normalize01(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return out
	}
	for i, v := range xs {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}
