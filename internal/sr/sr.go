// Package sr implements the super-resolution stage: the content-aware SR
// model abstraction (the role of the NAS "high-quality" DNN served by
// TensorRT in the paper) and the selective super-resolution reconstructor
// that upscales non-anchor frames by reusing previously super-resolved
// frames guided by codec information (NEMO-style, §2 of the paper).
//
// The model's pixel behaviour is simulated (see DESIGN.md): a content-aware
// DNN trained online on the stream's high-resolution source is modelled as
// a reconstruction that moves the bicubic upscale toward the ground-truth
// frame by a fidelity factor derived from the network size, plus a small
// fixed imperfection floor. Everything downstream of the model — error
// accumulation across non-anchor frames, its reset at anchors, the
// dependence of anchor gain on frame type and residual — is real pixel
// math, not a formula.
package sr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

// ModelConfig describes a NAS-style SR network.
type ModelConfig struct {
	// Blocks is the number of residual blocks (paper default 8).
	Blocks int
	// Channels is the channel width (paper's high-quality DNN uses 32).
	Channels int
	// Scale is the integer upscale factor (paper uses 3: 720p -> 2160p).
	Scale int
}

// Validate checks the configuration.
func (c ModelConfig) Validate() error {
	if c.Blocks < 1 || c.Blocks > 64 {
		return fmt.Errorf("sr: blocks %d out of [1, 64]", c.Blocks)
	}
	if c.Channels < 1 || c.Channels > 256 {
		return fmt.Errorf("sr: channels %d out of [1, 256]", c.Channels)
	}
	if c.Scale < 2 || c.Scale > 4 {
		return fmt.Errorf("sr: scale %d out of [2, 4]", c.Scale)
	}
	return nil
}

// HighQuality is the paper's default DNN configuration.
func HighQuality() ModelConfig { return ModelConfig{Blocks: 8, Channels: 32, Scale: 3} }

// Fidelity returns the fraction of the upscaling error the model removes,
// in [0, 1). It grows with network capacity (blocks × channels) with
// diminishing returns, calibrated so the (8, 32) network yields the
// ~4-5 dB anchor-frame gains of the paper and the smaller per-frame
// baselines of Table 3 land proportionally lower.
func (c ModelConfig) Fidelity() float64 {
	capacity := float64(c.Blocks * c.Channels)
	return capacity / (capacity + 280)
}

// WeightBytes returns the parameter size of the network, used by the GPU
// memory manager. Parameters scale with blocks·channels² (3×3 convs).
func (c ModelConfig) WeightBytes() int64 {
	return int64(c.Blocks) * int64(c.Channels) * int64(c.Channels) * 9 * 4
}

// Model super-resolves single frames. Apply must be safe for concurrent
// use: one enhancer runs several chunks of a stream at once, and an
// enhancer service serves batches concurrently.
type Model interface {
	Config() ModelConfig
	// Apply upscales a decoded ingest-resolution frame. displayIndex
	// identifies the frame within the stream so content-aware models can
	// exploit what they learned about the content. The returned frame
	// belongs to the caller, which may hand it back to the arena with
	// frame.Release once done with it.
	Apply(lr *frame.Frame, displayIndex int) (*frame.Frame, error)
}

// OracleModel simulates a content-aware DNN trained online (as in
// LiveNAS): its "weights" are the high-resolution source frames the
// trainer saw, and applying it blends the bicubic upscale toward that
// source by the configured fidelity, then adds a deterministic
// imperfection floor so the output is never the ground truth.
type OracleModel struct {
	cfg      ModelConfig
	fidelity float64
	hr       []*frame.Frame
	// floorAmp is the RMS amplitude (luma levels) of the imperfection
	// floor; it bounds the achievable quality the way a real DNN's
	// capacity does.
	floorAmp float64
	seed     int64
	// targeted, when non-nil, marks display indices the training
	// emphasized (anchor-targeted training, §9): fidelity is boosted on
	// those frames and slightly reduced elsewhere, reflecting a fixed
	// training budget.
	targeted map[int]bool
}

// NewOracleModel builds a model for one stream. hr holds the stream's
// high-resolution frames in display order (the "training data"). The
// model retains the slice; callers must not mutate the frames.
func NewOracleModel(cfg ModelConfig, hr []*frame.Frame) (*OracleModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(hr) == 0 {
		return nil, errors.New("sr: oracle model needs at least one HR frame")
	}
	return &OracleModel{
		cfg:      cfg,
		fidelity: cfg.Fidelity(),
		hr:       hr,
		floorAmp: 1.6,
		seed:     int64(cfg.Blocks)<<32 ^ int64(cfg.Channels),
	}, nil
}

// NewOracleModelTargeted builds an anchor-targeted model (the §9 joint
// optimization): training time concentrates on the frames at the given
// display indices, boosting fidelity there at a small cost everywhere
// else — the training budget is fixed.
func NewOracleModelTargeted(cfg ModelConfig, hr []*frame.Frame, targets []int) (*OracleModel, error) {
	m, err := NewOracleModel(cfg, hr)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, errors.New("sr: targeted training needs at least one target frame")
	}
	m.targeted = make(map[int]bool, len(targets))
	for _, t := range targets {
		if t < 0 || t >= len(hr) {
			return nil, fmt.Errorf("sr: target %d outside trained range [0, %d)", t, len(hr))
		}
		m.targeted[t] = true
	}
	return m, nil
}

// Config implements Model.
func (m *OracleModel) Config() ModelConfig { return m.cfg }

// fidelityFor returns the per-frame fidelity, accounting for targeted
// training.
func (m *OracleModel) fidelityFor(displayIndex int) float64 {
	if m.targeted == nil {
		return m.fidelity
	}
	if m.targeted[displayIndex] {
		// Concentrated training closes ~35% of the remaining gap. The
		// product is rounded before the add so no architecture fuses it.
		return m.fidelity + float64((1-m.fidelity)*0.35)
	}
	f := m.fidelity - 0.04 // the rest of the content sees less training
	if f < 0 {
		f = 0
	}
	return f
}

// Apply implements Model. The output is borrowed from the frame arena
// (the upscale overwrites every sample); Reconstructor and the media
// enhancer release it when done.
func (m *OracleModel) Apply(lr *frame.Frame, displayIndex int) (*frame.Frame, error) {
	if displayIndex < 0 || displayIndex >= len(m.hr) {
		return nil, fmt.Errorf("sr: display index %d outside trained range [0, %d)", displayIndex, len(m.hr))
	}
	gt := m.hr[displayIndex]
	out := frame.Borrow(gt.W, gt.H)
	if err := frame.ScaleBicubicBlendInto(out, lr, gt, m.fidelityFor(displayIndex)); err != nil {
		frame.Release(out)
		return nil, err
	}
	m.addFloor(out, displayIndex)
	return out, nil
}

// floorRands recycles addFloor's generators: reseeding one yields the
// same sequence as a new source with that seed, without allocating the
// source's state per anchor.
var floorRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// addFloor perturbs the output with deterministic noise of amplitude
// floorAmp, independent of the input error.
func (m *OracleModel) addFloor(f *frame.Frame, displayIndex int) {
	if m.floorAmp <= 0 {
		return
	}
	rng := floorRands.Get().(*rand.Rand)
	defer floorRands.Put(rng)
	rng.Seed(m.seed + int64(displayIndex)*7919)
	amp := float64(m.floorAmp * math.Sqrt(3)) // uniform [-a, a] has RMS a/sqrt(3)
	for y := 0; y < f.H; y++ {
		row := f.Y.Row(y)
		for x := 0; x < f.W; x += 2 {
			// Every product is rounded before it is added, the inlined
			// Float64 (itself a product) included, so architectures that
			// fuse multiply-adds compute the same sample.
			v := int(row[x]) + int(float64(float64(rng.Float64())*2*amp)-amp)
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			row[x] = byte(v)
		}
	}
}

// BicubicModel is the no-enhancement baseline: plain bicubic upscaling.
// It is what "Original" quality is measured against in the figures.
type BicubicModel struct {
	cfg ModelConfig
}

// NewBicubicModel returns a bicubic upscaler with the given scale factor.
func NewBicubicModel(scale int) (*BicubicModel, error) {
	cfg := ModelConfig{Blocks: 1, Channels: 1, Scale: scale}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &BicubicModel{cfg: cfg}, nil
}

// Config implements Model.
func (m *BicubicModel) Config() ModelConfig { return m.cfg }

// Apply implements Model.
func (m *BicubicModel) Apply(lr *frame.Frame, _ int) (*frame.Frame, error) {
	return frame.ScaleBicubic(lr, lr.W*m.cfg.Scale, lr.H*m.cfg.Scale)
}

var _ Model = (*OracleModel)(nil)
var _ Model = (*BicubicModel)(nil)

// Reconstructor performs selective super-resolution over a decoded
// stream: anchor frames run the model; non-anchor frames are rebuilt by
// warping the cached super-resolved references with the codec's motion
// vectors and adding the bilinearly upscaled residual. Quality loss
// accumulates across consecutive non-anchor frames and resets at anchors,
// exactly the dynamics anchor selection exploits.
type Reconstructor struct {
	model    Model
	scale    int
	lrW, lrH int
	grid     frame.BlockGrid // ingest-resolution motion grid

	srLast   *frame.Frame
	srAltref *frame.Frame
	// ownLast/ownAltref record whether the matching reference frame was
	// allocated by this reconstructor (as opposed to provided by the
	// caller via ProcessProvided); only owned frames may be recycled into
	// the frame arena when superseded.
	ownLast   bool
	ownAltref bool

	anchors int
	frames  int
}

// NewReconstructor builds a reconstructor for streams of the given ingest
// configuration. A nil model is allowed when anchors are supplied
// externally via ProcessProvided (the hybrid decoder's client-side path);
// use NewProvidedReconstructor for that.
func NewReconstructor(model Model, streamCfg vcodec.Config) (*Reconstructor, error) {
	if model == nil {
		return nil, errors.New("sr: nil model (use NewProvidedReconstructor for model-free decoding)")
	}
	scale := model.Config().Scale
	return &Reconstructor{
		model: model,
		scale: scale,
		lrW:   streamCfg.Width,
		lrH:   streamCfg.Height,
		grid: frame.BlockGrid{
			FrameW: streamCfg.Width,
			FrameH: streamCfg.Height,
			Block:  vcodec.MEBlock,
		},
	}, nil
}

// NewProvidedReconstructor builds a model-free reconstructor whose anchor
// frames arrive pre-upscaled (decoded from a hybrid container). Only
// ProcessProvided and the reuse path may run on it.
func NewProvidedReconstructor(scale int, streamCfg vcodec.Config) (*Reconstructor, error) {
	if scale < 2 || scale > 4 {
		return nil, fmt.Errorf("sr: scale %d out of [2, 4]", scale)
	}
	return &Reconstructor{
		scale: scale,
		lrW:   streamCfg.Width,
		lrH:   streamCfg.Height,
		grid: frame.BlockGrid{
			FrameW: streamCfg.Width,
			FrameH: streamCfg.Height,
			Block:  vcodec.MEBlock,
		},
	}, nil
}

// ProcessProvided consumes one decoded packet whose high-resolution
// anchor output (if hr is non-nil) was produced elsewhere. With hr nil
// the packet takes the ordinary reuse path.
func (r *Reconstructor) ProcessProvided(d *vcodec.Decoded, hr *frame.Frame) (*frame.Frame, error) {
	if hr == nil {
		return r.Process(d, false)
	}
	if hr.W != r.lrW*r.scale || hr.H != r.lrH*r.scale {
		return nil, fmt.Errorf("sr: provided anchor is %dx%d, want %dx%d",
			hr.W, hr.H, r.lrW*r.scale, r.lrH*r.scale)
	}
	r.frames++
	r.anchors++
	switch d.Info.Type {
	case vcodec.Key:
		r.setLast(hr, false) // caller-provided: never recycled
		r.setAltref(hr.Clone(), true)
	case vcodec.AltRef:
		r.setAltref(hr, false)
		return nil, nil
	default:
		r.setLast(hr, false)
	}
	return hr.Clone(), nil
}

// setLast replaces the LAST reference slot, recycling the superseded
// frame into the arena when this reconstructor owns it. own records
// whether the new frame may be recycled in turn.
func (r *Reconstructor) setLast(f *frame.Frame, own bool) {
	if r.ownLast {
		frame.Release(r.srLast)
	}
	r.srLast, r.ownLast = f, own
}

// setAltref is setLast for the ALTREF slot.
func (r *Reconstructor) setAltref(f *frame.Frame, own bool) {
	if r.ownAltref {
		frame.Release(r.srAltref)
	}
	r.srAltref, r.ownAltref = f, own
}

// AnchorCount returns how many anchor frames have been enhanced.
func (r *Reconstructor) AnchorCount() int { return r.anchors }

// FrameCount returns how many packets have been processed.
func (r *Reconstructor) FrameCount() int { return r.frames }

// Process consumes one decoded packet. anchor selects the expensive
// model path. The returned frame is the high-resolution output; it is nil
// for invisible (altref) packets, whose result only updates reference
// state. Decoded inter packets must carry a captured residual.
func (r *Reconstructor) Process(d *vcodec.Decoded, anchor bool) (*frame.Frame, error) {
	if d.Frame.W != r.lrW || d.Frame.H != r.lrH {
		return nil, fmt.Errorf("sr: frame is %dx%d, reconstructor expects %dx%d",
			d.Frame.W, d.Frame.H, r.lrW, r.lrH)
	}
	r.frames++
	var hr *frame.Frame
	var err error
	switch {
	case anchor:
		if r.model == nil {
			return nil, errors.New("sr: anchor requested on a model-free reconstructor")
		}
		r.anchors++
		hr, err = r.model.Apply(d.Frame, d.Info.DisplayIndex)
		if err != nil {
			return nil, err
		}
	case d.Info.Type == vcodec.Key:
		// Non-anchor key frame: no motion data exists, fall back to the
		// cheap client-side upscale.
		hr, err = frame.ScaleBilinear(d.Frame, r.lrW*r.scale, r.lrH*r.scale)
		if err != nil {
			return nil, err
		}
	default:
		hr, err = r.reuse(d)
		if err != nil {
			return nil, err
		}
	}

	switch d.Info.Type {
	case vcodec.Key:
		r.setLast(hr, true)
		r.setAltref(hr.Clone(), true)
	case vcodec.AltRef:
		r.setAltref(hr, true)
		return nil, nil // invisible: reference update only
	default:
		r.setLast(hr, true)
	}
	return hr.Clone(), nil
}

// reuse rebuilds a non-anchor inter/altref frame from the cached
// super-resolved references.
func (r *Reconstructor) reuse(d *vcodec.Decoded) (*frame.Frame, error) {
	if r.srLast == nil {
		return nil, errors.New("sr: inter frame before any reconstructed reference")
	}
	if d.Residual == nil {
		return nil, errors.New("sr: decoded packet lacks captured residual (set Decoder.CaptureResidual)")
	}
	if len(d.Info.MVs) != r.grid.NumBlocks() {
		return nil, fmt.Errorf("sr: %d motion vectors for %d blocks", len(d.Info.MVs), r.grid.NumBlocks())
	}
	hrW, hrH := r.lrW*r.scale, r.lrH*r.scale
	// The warp writes every sample (the grid tiles the frame and the
	// block edge is even, so chroma rectangles are disjoint and complete),
	// making a dirty arena frame safe; blocks warp concurrently banded by
	// whole block rows.
	out := frame.Borrow(hrW, hrH)
	hrGrid := frame.BlockGrid{FrameW: hrW, FrameH: hrH, Block: vcodec.MEBlock * r.scale}
	cols := hrGrid.Cols()
	par.For(hrGrid.Rows(), 1, func(rLo, rHi int) {
		for i := rLo * cols; i < rHi*cols; i++ {
			ref := r.srLast
			if d.Info.Refs[i] == vcodec.RefAltRef && r.srAltref != nil {
				ref = r.srAltref
			}
			x0, y0, w, h := hrGrid.BlockRect(i)
			warpBlockPlanes(out, ref, x0, y0, w, h, d.Info.MVs[i].Scaled(r.scale))
		}
	})
	resHR := frame.Borrow(hrW, hrH)
	frame.ScaleBilinearInto(resHR, d.Residual)
	err := frame.AddResidual(out, resHR)
	frame.Release(resHR)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// warpBlockPlanes copies one motion-compensated block (luma + chroma)
// from ref into dst with border clamping.
func warpBlockPlanes(dst, ref *frame.Frame, x0, y0, w, h int, mv frame.MotionVector) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst.Y.Set(x0+x, y0+y, ref.Y.At(x0+x+mv.DX, y0+y+mv.DY))
		}
	}
	cx0, cy0, cw, ch := x0/2, y0/2, (w+1)/2, (h+1)/2
	for y := 0; y < ch; y++ {
		for x := 0; x < cw; x++ {
			dst.U.Set(cx0+x, cy0+y, ref.U.At(cx0+x+mv.DX/2, cy0+y+mv.DY/2))
			dst.V.Set(cx0+x, cy0+y, ref.V.At(cx0+x+mv.DX/2, cy0+y+mv.DY/2))
		}
	}
}
