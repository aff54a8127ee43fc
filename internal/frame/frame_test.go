package frame

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

func TestNewRejectsBadDimensions(t *testing.T) {
	for _, tc := range [][2]int{{0, 10}, {10, 0}, {-1, 4}, {4, -1}, {0, 0}} {
		if _, err := New(tc[0], tc[1]); err == nil {
			t.Errorf("New(%d, %d) succeeded, want error", tc[0], tc[1])
		}
	}
}

func TestNewChromaHalved(t *testing.T) {
	cases := []struct{ w, h, cw, ch int }{
		{16, 16, 8, 8},
		{17, 17, 9, 9},
		{1, 1, 1, 1},
		{640, 360, 320, 180},
	}
	for _, tc := range cases {
		f := MustNew(tc.w, tc.h)
		if f.U.W != tc.cw || f.U.H != tc.ch {
			t.Errorf("New(%d,%d): chroma %dx%d, want %dx%d", tc.w, tc.h, f.U.W, f.U.H, tc.cw, tc.ch)
		}
	}
}

func TestNewIsNeutral(t *testing.T) {
	f := MustNew(8, 8)
	if f.Y.At(3, 3) != 0 {
		t.Errorf("luma not zero: %d", f.Y.At(3, 3))
	}
	if f.U.At(2, 2) != 128 || f.V.At(2, 2) != 128 {
		t.Errorf("chroma not neutral: U=%d V=%d", f.U.At(2, 2), f.V.At(2, 2))
	}
}

func TestPlaneAtClamps(t *testing.T) {
	p := NewPlane(4, 4)
	p.Set(0, 0, 11)
	p.Set(3, 3, 22)
	if got := p.At(-5, -5); got != 11 {
		t.Errorf("At(-5,-5) = %d, want 11 (clamped to corner)", got)
	}
	if got := p.At(100, 100); got != 22 {
		t.Errorf("At(100,100) = %d, want 22 (clamped to corner)", got)
	}
}

func TestPlaneSetOutOfBoundsIgnored(t *testing.T) {
	p := NewPlane(4, 4)
	p.Set(-1, 0, 9)
	p.Set(0, -1, 9)
	p.Set(4, 0, 9)
	p.Set(0, 4, 9)
	for _, b := range p.Pix {
		if b != 0 {
			t.Fatal("out-of-bounds Set modified the plane")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := MustNew(8, 8)
	f.Y.Set(1, 1, 200)
	g := f.Clone()
	g.Y.Set(1, 1, 50)
	if f.Y.At(1, 1) != 200 {
		t.Error("Clone shares luma storage with the original")
	}
}

func TestDiffAddResidualRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := MustNew(16, 16), MustNew(16, 16)
	for i := range a.Y.Pix {
		// Keep the difference within the representable biased range
		// [-128, 127] so the round trip is exact.
		a.Y.Pix[i] = byte(100 + rng.Intn(100))
		b.Y.Pix[i] = byte(80 + rng.Intn(100))
	}
	res, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Clone()
	if err := AddResidual(got, res); err != nil {
		t.Fatal(err)
	}
	sad, err := AbsDiffSum(got, a)
	if err != nil {
		t.Fatal(err)
	}
	if sad != 0 {
		t.Errorf("Diff/AddResidual round trip lost %d of luma", sad)
	}
}

// The blend tests scale a same-size source (a copy) so the blend alone
// decides the output; TestScaleBicubicBlendMatchesSeparatePasses covers
// the fused filter pass.

func TestBlendExtremes(t *testing.T) {
	a, b := MustNew(8, 8), MustNew(8, 8)
	a.Y.Fill(10)
	b.Y.Fill(250)
	got := MustNew(8, 8)
	if err := ScaleBicubicBlendInto(got, a, b, 0); err != nil {
		t.Fatal(err)
	}
	if got.Y.At(0, 0) != 10 {
		t.Errorf("blend alpha=0 changed the upscale: %d", got.Y.At(0, 0))
	}
	if err := ScaleBicubicBlendInto(got, a, b, 1); err != nil {
		t.Fatal(err)
	}
	if got.Y.At(0, 0) != 250 {
		t.Errorf("blend alpha=1 != target: %d", got.Y.At(0, 0))
	}
}

func TestBlendMonotonicInAlpha(t *testing.T) {
	a, b := MustNew(4, 4), MustNew(4, 4)
	a.Y.Fill(0)
	b.Y.Fill(200)
	prev := -1
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		g := MustNew(4, 4)
		if err := ScaleBicubicBlendInto(g, a, b, alpha); err != nil {
			t.Fatal(err)
		}
		v := int(g.Y.At(0, 0))
		if v < prev {
			t.Errorf("blend not monotonic: alpha=%v gave %d after %d", alpha, v, prev)
		}
		prev = v
	}
}

func TestScaleBicubicBlendRejectsMismatchedTarget(t *testing.T) {
	if err := ScaleBicubicBlendInto(MustNew(8, 8), MustNew(4, 4), MustNew(8, 6), 0.5); err == nil {
		t.Error("target of another size accepted")
	}
}

// referenceBlend is the blend as its own pass over a finished upscale:
// dst = (src*a + dst*(256-a) + 128) >> 8 with a = round(alpha*256).
func referenceBlend(dst, src *Frame, alpha float64) {
	alpha = math.Min(math.Max(alpha, 0), 1)
	a := int(float64(alpha*256) + 0.5)
	dp, sp := dst.Planes(), src.Planes()
	for i := range dp {
		for y := 0; y < dp[i].H; y++ {
			dr, sr := dp[i].Row(y), sp[i].Row(y)
			for x := range dr {
				dr[x] = byte((int(sr[x])*a + int(dr[x])*(256-a) + 128) >> 8)
			}
		}
	}
}

// TestScaleBicubicBlendMatchesSeparatePasses pins the fused pass to
// ScaleBicubicInto followed by a separate blend, sample for sample, on
// upscales, downscales and same-size copies, at alphas inside and outside
// [0, 1], into dirty arena frames, for one and several workers.
func TestScaleBicubicBlendMatchesSeparatePasses(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	rng := rand.New(rand.NewSource(33))
	noise := func(w, h int) *Frame {
		f := MustNew(w, h)
		for _, p := range f.Planes() {
			rng.Read(p.Pix)
		}
		return f
	}
	shapes := [][4]int{{32, 24, 96, 72}, {17, 9, 51, 27}, {33, 20, 66, 40}, {40, 30, 20, 15}, {12, 10, 12, 10}}
	for _, workers := range []int{1, 3} {
		par.SetWorkers(workers)
		for _, sh := range shapes {
			src, target := noise(sh[0], sh[1]), noise(sh[2], sh[3])
			for _, alpha := range []float64{-0.5, 0, 0.3, 0.5, 0.8857, 1, 2} {
				want := MustNew(sh[2], sh[3])
				ScaleBicubicInto(want, src)
				referenceBlend(want, target, alpha)
				got := Borrow(sh[2], sh[3])
				for _, p := range got.Planes() {
					rng.Read(p.Pix)
				}
				if err := ScaleBicubicBlendInto(got, src, target, alpha); err != nil {
					t.Fatal(err)
				}
				for i, p := range got.Planes() {
					if !bytes.Equal(p.Pix, want.Planes()[i].Pix) {
						t.Fatalf("workers %d, %dx%d -> %dx%d, alpha %v: plane %d differs from scale-then-blend",
							workers, sh[0], sh[1], sh[2], sh[3], alpha, i)
					}
				}
				Release(got)
			}
		}
	}
}

// TestScaleBicubicSameSizeCopies checks that scaling to the source's own
// size copies it exactly into a dirty destination.
func TestScaleBicubicSameSizeCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	src, dst := MustNew(13, 9), MustNew(13, 9)
	for i, p := range src.Planes() {
		rng.Read(p.Pix)
		rng.Read(dst.Planes()[i].Pix)
	}
	ScaleBicubicInto(dst, src)
	for i, p := range dst.Planes() {
		if !bytes.Equal(p.Pix, src.Planes()[i].Pix) {
			t.Fatalf("plane %d: same-size scale is not a copy", i)
		}
	}
}

func TestScaleBilinearPreservesConstant(t *testing.T) {
	src := MustNew(16, 16)
	src.Y.Fill(77)
	dst, err := ScaleBilinear(src, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range dst.Y.Pix {
		if b != 77 {
			t.Fatalf("bilinear upscale of constant produced %d", b)
		}
	}
}

func TestScaleBicubicPreservesConstant(t *testing.T) {
	src := MustNew(16, 16)
	src.Y.Fill(140)
	dst, err := ScaleBicubic(src, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range dst.Y.Pix {
		if int(b) < 138 || int(b) > 142 {
			t.Fatalf("bicubic upscale of constant produced %d, want ~140", b)
		}
	}
}

func TestDownscaleBoxAverages(t *testing.T) {
	src := MustNew(4, 4)
	// One 2x2 block of 100s, rest 0.
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			src.Y.Set(x, y, 100)
		}
	}
	dst, err := Downscale(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dst.W != 2 || dst.H != 2 {
		t.Fatalf("Downscale size %dx%d, want 2x2", dst.W, dst.H)
	}
	if dst.Y.At(0, 0) != 100 || dst.Y.At(1, 1) != 0 {
		t.Errorf("box average wrong: %d, %d", dst.Y.At(0, 0), dst.Y.At(1, 1))
	}
}

func TestDownUpRoundTripSmooth(t *testing.T) {
	// A smooth gradient survives 3x down + bicubic up with small error.
	src := MustNew(48, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			src.Y.Set(x, y, byte(2*(x+y)))
		}
	}
	lo, err := Downscale(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	up, err := ScaleBicubic(lo, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	sad, err := AbsDiffSum(up, src)
	if err != nil {
		t.Fatal(err)
	}
	if avg := float64(sad) / (48 * 48); avg > 4 {
		t.Errorf("smooth gradient round trip mean abs error %.2f, want <= 4", avg)
	}
}

func TestBlockGridGeometry(t *testing.T) {
	g := BlockGrid{FrameW: 20, FrameH: 10, Block: 8}
	if g.Cols() != 3 || g.Rows() != 2 || g.NumBlocks() != 6 {
		t.Fatalf("grid geometry: cols=%d rows=%d n=%d", g.Cols(), g.Rows(), g.NumBlocks())
	}
	x0, y0, w, h := g.BlockRect(2) // third block of first row, cropped
	if x0 != 16 || y0 != 0 || w != 4 || h != 8 {
		t.Errorf("BlockRect(2) = (%d,%d,%d,%d), want (16,0,4,8)", x0, y0, w, h)
	}
	x0, y0, w, h = g.BlockRect(5) // bottom-right, cropped both ways
	if x0 != 16 || y0 != 8 || w != 4 || h != 2 {
		t.Errorf("BlockRect(5) = (%d,%d,%d,%d), want (16,8,4,2)", x0, y0, w, h)
	}
}

func TestWarpBlocksZeroMotionCopies(t *testing.T) {
	ref := MustNew(16, 16)
	for i := range ref.Y.Pix {
		ref.Y.Pix[i] = byte(i)
	}
	dst := MustNew(16, 16)
	grid := BlockGrid{FrameW: 16, FrameH: 16, Block: 8}
	mvs := make([]MotionVector, grid.NumBlocks())
	if err := WarpBlocks(dst, ref, grid, mvs); err != nil {
		t.Fatal(err)
	}
	sad, _ := AbsDiffSum(dst, ref)
	if sad != 0 {
		t.Errorf("zero-motion warp is not identity (SAD %d)", sad)
	}
}

func TestWarpBlocksTranslates(t *testing.T) {
	ref := MustNew(16, 16)
	ref.Y.Set(4, 4, 255)
	dst := MustNew(16, 16)
	grid := BlockGrid{FrameW: 16, FrameH: 16, Block: 16}
	// A vector of (+4, +4) means "source pixel is at dst+4", i.e. content
	// moves up-left by 4.
	if err := WarpBlocks(dst, ref, grid, []MotionVector{{DX: 4, DY: 4}}); err != nil {
		t.Fatal(err)
	}
	if dst.Y.At(0, 0) != 255 {
		t.Errorf("translated pixel not found at (0,0): %d", dst.Y.At(0, 0))
	}
}

func TestWarpBlocksVectorCountChecked(t *testing.T) {
	f := MustNew(16, 16)
	grid := BlockGrid{FrameW: 16, FrameH: 16, Block: 8}
	if err := WarpBlocks(f, f.Clone(), grid, make([]MotionVector, 1)); err == nil {
		t.Error("WarpBlocks accepted wrong vector count")
	}
}

func TestMotionVectorScaled(t *testing.T) {
	mv := MotionVector{DX: -2, DY: 3}
	if got := mv.Scaled(3); got.DX != -6 || got.DY != 9 {
		t.Errorf("Scaled(3) = %+v", got)
	}
}

// Property: Diff/AddResidual round-trips for any frame pair whose
// per-sample difference fits in [-128, 127].
func TestQuickDiffRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := MustNew(12, 12), MustNew(12, 12)
		for i := range a.Y.Pix {
			base := byte(64 + rng.Intn(128))
			a.Y.Pix[i] = base
			b.Y.Pix[i] = byte(int(base) + rng.Intn(100) - 50)
		}
		res, err := Diff(a, b)
		if err != nil {
			return false
		}
		got := b.Clone()
		if err := AddResidual(got, res); err != nil {
			return false
		}
		sad, err := AbsDiffSum(got, a)
		return err == nil && sad == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: warping with any in-range motion vector never reads outside
// the reference (clamping) and never panics.
func TestQuickWarpNeverPanics(t *testing.T) {
	f := func(dx, dy int8) bool {
		ref := MustNew(16, 16)
		dst := MustNew(16, 16)
		grid := BlockGrid{FrameW: 16, FrameH: 16, Block: 8}
		mvs := make([]MotionVector, grid.NumBlocks())
		for i := range mvs {
			mvs[i] = MotionVector{DX: int(dx), DY: int(dy)}
		}
		return WarpBlocks(dst, ref, grid, mvs) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
