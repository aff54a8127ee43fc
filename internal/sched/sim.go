package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/anchor"
	"github.com/neuroscaler/neuroscaler/internal/cluster"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

// QualityModel maps the number of anchors a stream received in one
// interval to its quality difference from per-frame super-resolution
// (dB; lower is better). Figures 6 and 25 aggregate this across streams.
type QualityModel interface {
	// Diff returns the quality difference in dB for n anchors.
	Diff(n int) float64
}

// ExpQuality is a saturating response: Diff(n) = Max·exp(-(n/Tau)^Pow).
// Pow > 1 gives the knee shape of Figure 16: starving a stream below the
// knee costs a lot of quality while feeding it beyond the knee returns
// little. Pow == 0 is treated as 1 (plain exponential decay).
type ExpQuality struct {
	Max float64
	Tau float64
	Pow float64
}

// Diff implements QualityModel.
func (q ExpQuality) Diff(n int) float64 {
	if n < 0 {
		n = 0
	}
	p := q.Pow
	if p == 0 {
		p = 1
	}
	return q.Max * math.Exp(-math.Pow(float64(n)/q.Tau, p))
}

// DefaultQualityModel returns the calibrated response for a stream of the
// given vertical resolution. Higher-resolution streams have more quality
// at stake and need more anchors to converge.
func DefaultQualityModel(heightPx int) QualityModel {
	// Calibrated against Figure 6(b), whose anchor counts are per
	// 2-second chunk (≈3 intervals): an under-selected 720p stream at
	// ~1.6 anchors per interval sits at a 2.72 dB difference, while the
	// cost-effective point (~3 anchors per interval) leaves only
	// fractions of a dB; over-selected 360p streams gain ≈0.17 dB per
	// additional anchor.
	switch {
	case heightPx >= 720:
		return ExpQuality{Max: 6.1, Tau: 1.78, Pow: 2}
	case heightPx >= 540:
		return ExpQuality{Max: 3.8, Tau: 1.4, Pow: 2}
	default:
		return ExpQuality{Max: 2.6, Tau: 1.0, Pow: 2}
	}
}

// SimStream is one synthetic stream in a scheduling simulation.
type SimStream struct {
	ID int
	// Width, Height is the ingest resolution.
	Width, Height int
	// Model is the stream's SR network.
	Model sr.ModelConfig
	// MotionLevel in (0, 1] scales synthetic residuals.
	MotionLevel float64
	// Quality is the stream's anchor-count → quality-difference response.
	Quality QualityModel
	// GPU is the accelerator enhancing this stream; the zero value
	// selects the T4.
	GPU cluster.GPUKind
}

// AnchorLatency returns T_DNN for one anchor of this stream on its
// accelerator.
func (s SimStream) AnchorLatency() time.Duration {
	gpu := s.GPU
	if gpu == cluster.GPUNone {
		gpu = cluster.GPUT4
	}
	return cluster.InferLatencyOn(gpu, s.Model, s.Width, s.Height)
}

// MakeInterval synthesizes codec metadata for one scheduling interval of
// the given length, deterministic in (stream ID, interval index): a key
// frame when the GOP boundary falls inside the interval, altrefs every 8
// frames, and motion-scaled residuals.
func (s SimStream) MakeInterval(intervalIdx, frames, gop int) StreamInterval {
	rng := rand.New(rand.NewSource(int64(s.ID)*1e6 + int64(intervalIdx)))
	metas := make([]anchor.FrameMeta, frames)
	base := intervalIdx * frames
	// Residual sizes scale with frame area, as encoded residual bytes do
	// in a real codec; this is what lets global selection see that
	// higher-resolution streams have more quality at stake.
	areaScale := float64(s.Width*s.Height) / (640 * 360)
	for i := 0; i < frames; i++ {
		display := base + i
		typ := vcodec.Inter
		switch {
		case display%gop == 0:
			typ = vcodec.Key
		case display%8 == 0:
			typ = vcodec.AltRef
		}
		res := 0.0
		if typ != vcodec.Key {
			// Each product is rounded before it is added (the inlined
			// Float64 is a product too), so architectures that fuse
			// multiply-adds draw the same residual.
			res = s.MotionLevel * areaScale * (200 + float64(800*float64(rng.Float64())))
		}
		metas[i] = anchor.FrameMeta{
			Packet:       i,
			Type:         typ,
			DisplayIndex: display,
			Residual:     res,
		}
	}
	return StreamInterval{StreamID: s.ID, Metas: metas, AnchorLatency: s.AnchorLatency()}
}

// MixedStreams builds the Figure 6 / Figure 25 workload: half 360p
// streams upscaled to 1080p and half 720p streams upscaled to 2160p.
func MixedStreams(n int) ([]SimStream, error) {
	if n < 2 || n%2 != 0 {
		return nil, errors.New("sched: mixed workload needs an even stream count >= 2")
	}
	streams := make([]SimStream, n)
	for i := range streams {
		s := SimStream{ID: i, Model: sr.HighQuality(), MotionLevel: 0.5 + float64(0.5*float64(i%3)/2)}
		if i < n/2 {
			s.Width, s.Height = 640, 360
		} else {
			s.Width, s.Height = 1280, 720
		}
		s.Quality = DefaultQualityModel(s.Height)
		streams[i] = s
	}
	return streams, nil
}

// IterationResult summarizes one shuffled scheduling iteration.
type IterationResult struct {
	// QualityDiffs holds per-stream quality difference (dB).
	QualityDiffs []float64
	// AnchorsPerStream holds per-stream anchor counts (same order).
	AnchorsPerStream []int
	// LoadPerInstance is the per-instance busy time.
	LoadPerInstance []time.Duration
}

// Mean returns the mean quality difference of the iteration.
func (r IterationResult) Mean() float64 {
	if len(r.QualityDiffs) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range r.QualityDiffs {
		sum += d
	}
	return sum / float64(len(r.QualityDiffs))
}

// Simulation drives repeated scheduling rounds over shuffled stream
// orders, the methodology of Figures 6 and 25 (1000 iterations with
// randomly shuffled stream placement).
type Simulation struct {
	Streams   []SimStream
	Instances int
	Policy    Policy
	GOP       int
	// Agnostic selects the round-robin baseline instead of the
	// anchor-aware scheduler.
	Agnostic bool
}

// Run executes iterations rounds and returns one result per round.
func (sim *Simulation) Run(iterations int, seed int64) ([]IterationResult, error) {
	if len(sim.Streams) == 0 {
		return nil, errors.New("sched: simulation needs streams")
	}
	if iterations < 1 {
		return nil, errors.New("sched: iterations must be >= 1")
	}
	gop := sim.GOP
	if gop == 0 {
		gop = 120
	}
	sched, err := New(sim.Policy, sim.Instances)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]IterationResult, 0, iterations)
	for it := 0; it < iterations; it++ {
		order := rng.Perm(len(sim.Streams))
		intervals := make([]StreamInterval, len(sim.Streams))
		for pos, idx := range order {
			intervals[pos] = sim.Streams[idx].MakeInterval(it, sim.Policy.IntervalFrames, gop)
		}
		var plan *Plan
		if sim.Agnostic {
			plan, err = sched.ScheduleAgnostic(intervals)
		} else {
			plan, err = sched.Schedule(intervals)
		}
		if err != nil {
			return nil, fmt.Errorf("sched: iteration %d: %w", it, err)
		}
		res := IterationResult{
			QualityDiffs:     make([]float64, len(sim.Streams)),
			AnchorsPerStream: make([]int, len(sim.Streams)),
			LoadPerInstance:  plan.LoadPerInstance,
		}
		for i, st := range sim.Streams {
			n := plan.AnchorsPerStream[st.ID]
			res.AnchorsPerStream[i] = n
			res.QualityDiffs[i] = st.Quality.Diff(n)
		}
		out = append(out, res)
	}
	return out, nil
}
