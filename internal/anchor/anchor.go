// Package anchor implements the paper's zero-inference anchor frame
// selection (§5.1, Algorithm 1) and the baselines it is evaluated against:
// NEMO-style selection driven by measured per-frame loss, key-frame-only
// selection, and key + equally-spaced selection.
//
// The zero-inference algorithm never touches pixels: it consumes only
// codec-level side information (frame type and residual size), groups
// frames into tiers (key > altref > normal), estimates each candidate's
// anchor gain from the accumulated residual it would eliminate, and picks
// candidates in tier-then-gain order until a latency budget is exhausted.
package anchor

import (
	"math"
	"sort"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

// Group is the selection tier of a candidate, in priority order.
type Group uint8

const (
	// GroupKey holds key frames; always selected first.
	GroupKey Group = iota
	// GroupAltRef holds alternative reference frames.
	GroupAltRef
	// GroupNormal holds ordinary inter frames.
	GroupNormal
)

// String implements fmt.Stringer.
func (g Group) String() string {
	switch g {
	case GroupKey:
		return "key"
	case GroupAltRef:
		return "altref"
	default:
		return "normal"
	}
}

// FrameMeta is the codec-level information about one packet that
// selection consumes. Packet identifies the packet within its stream;
// Residual is the per-frame residual signal (encoded residual size for the
// zero-inference algorithm, measured loss for the NEMO baseline).
type FrameMeta struct {
	Packet       int
	Type         vcodec.FrameType
	DisplayIndex int
	Residual     float64
}

// MetasFromInfos extracts FrameMeta records from encoded packet infos in
// decode order.
func MetasFromInfos(infos []vcodec.Info) []FrameMeta {
	out := make([]FrameMeta, len(infos))
	for i, inf := range infos {
		out[i] = FrameMeta{
			Packet:       i,
			Type:         inf.Type,
			DisplayIndex: inf.DisplayIndex,
			Residual:     float64(inf.ResidualBytes),
		}
	}
	return out
}

// MetasFromStream extracts FrameMeta records from a stream.
func MetasFromStream(s *vcodec.Stream) []FrameMeta {
	infos := make([]vcodec.Info, len(s.Packets))
	for i, p := range s.Packets {
		infos[i] = p.Info
	}
	return MetasFromInfos(infos)
}

// Candidate is one frame with its estimated anchor gain.
type Candidate struct {
	Meta FrameMeta
	// Stream tags the owning stream for global (multi-stream) selection.
	Stream int
	Group  Group
	// Gain is the estimated quality benefit of anchoring this frame:
	// the amount of accumulated residual it eliminates (zero-inference)
	// or of measured loss (NEMO). Key frames carry +Inf because they are
	// categorically selected first.
	Gain float64
}

// groupOf maps a frame type to its selection tier.
func groupOf(t vcodec.FrameType) Group {
	switch t {
	case vcodec.Key:
		return GroupKey
	case vcodec.AltRef:
		return GroupAltRef
	default:
		return GroupNormal
	}
}

// ZeroInferenceGains runs the full §5.1 pipeline over one stream's
// metadata: divide into groups, estimate anchor gain per group with
// Algorithm 1, and return all candidates. No pixel data or inference is
// involved. The returned order is unspecified; pass the result to Select*
// functions.
func ZeroInferenceGains(metas []FrameMeta) []Candidate {
	return gainsFromSignal(metas, nil)
}

// NEMOGains is the NEMO-baseline estimator: identical structure, but
// driven by a measured per-packet loss signal (obtained with per-frame
// inference) instead of the residual proxy. loss must be indexed by
// position in metas.
func NEMOGains(metas []FrameMeta, loss []float64) []Candidate {
	return gainsFromSignal(metas, loss)
}

func gainsFromSignal(metas []FrameMeta, override []float64) []Candidate {
	signal := make([]float64, len(metas))
	for i, m := range metas {
		if override != nil {
			signal[i] = override[i]
		} else {
			signal[i] = m.Residual
		}
	}
	out := make([]Candidate, 0, len(metas))
	// Per-group estimation, as in Algorithm 1's "candidates: frames
	// within a group".
	altGains := estimateGroup(metas, signal, GroupAltRef)
	normGains := estimateGroup(metas, signal, GroupNormal)
	for i, m := range metas {
		c := Candidate{Meta: m, Group: groupOf(m.Type)}
		switch c.Group {
		case GroupKey:
			// Key frames have equal (categorical) gain: they do not
			// affect accumulated residual but reset it.
			c.Gain = math.Inf(1)
		case GroupAltRef:
			c.Gain = altGains[i]
		default:
			c.Gain = normGains[i]
		}
		out = append(out, c)
	}
	return out
}

// estimateGroup implements Algorithm 1 (Per-group Anchor Gain Estimation)
// for the candidates of one group, returning gains indexed by position in
// metas.
func estimateGroup(metas []FrameMeta, signal []float64, g Group) []float64 {
	n := len(metas)
	gains := make([]float64, n)
	// CalcResidual: accumulated residual, reset at key frames.
	acc := make([]float64, n)
	run := 0.0
	for i, m := range metas {
		if m.Type == vcodec.Key {
			run = 0
		} else {
			run += signal[i]
		}
		acc[i] = run
	}
	candidate := make([]bool, n)
	remaining := 0
	for i, m := range metas {
		if groupOf(m.Type) == g {
			candidate[i] = true
			remaining++
		}
	}
	done := make([]bool, n)
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if !candidate[i] || done[i] {
				continue
			}
			gain := reducedResidual(metas, acc, done, i)
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		gains[best] = bestGain
		updateResidual(acc, best)
	}
	return gains
}

// reducedResidual computes ΔRes(F[i]) = (k - i) × Res[i], where k is the
// closest later index at which the residual resets: a key frame, a frame
// already chosen in a previous iteration, or — if neither exists — the
// predicted key frame of the next chunk (one past the end).
func reducedResidual(metas []FrameMeta, acc []float64, done []bool, i int) float64 {
	n := len(metas)
	k := n // predicted next-chunk key frame
	for j := i + 1; j < n; j++ {
		if metas[j].Type == vcodec.Key || done[j] {
			k = j
			break
		}
	}
	return float64(k-i) * acc[i]
}

// updateResidual subtracts the chosen frame's accumulated residual from
// every following frame until the residual next resets (Algorithm 1,
// UpdateResidual).
func updateResidual(acc []float64, index int) {
	delta := acc[index]
	for i := index; i < len(acc); i++ {
		if i > index && acc[i] <= 0 {
			break
		}
		acc[i] -= delta
		if acc[i] < 0 {
			acc[i] = 0
		}
	}
}

// OneShotGains returns each frame's standalone reduced residual
// ΔRes(F[i]) = (k - i) × Res[i], evaluated with no other anchors chosen.
// This is the quantity Figure 9(b) correlates against measured quality
// gain; the iterative estimates of ZeroInferenceGains additionally
// discount frames selected after their neighbours.
func OneShotGains(metas []FrameMeta) []float64 {
	n := len(metas)
	acc := make([]float64, n)
	run := 0.0
	for i, m := range metas {
		if m.Type == vcodec.Key {
			run = 0
		} else {
			run += m.Residual
		}
		acc[i] = run
	}
	done := make([]bool, n)
	out := make([]float64, n)
	for i := range metas {
		out[i] = reducedResidual(metas, acc, done, i)
	}
	return out
}

// SortCandidates orders candidates by tier (key, altref, normal) and by
// descending gain within a tier; ties keep decode order for determinism.
// It sorts in place and returns its argument for chaining.
func SortCandidates(cands []Candidate) []Candidate {
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].Group != cands[b].Group {
			return cands[a].Group < cands[b].Group
		}
		if cands[a].Gain != cands[b].Gain {
			return cands[a].Gain > cands[b].Gain
		}
		if cands[a].Stream != cands[b].Stream {
			return cands[a].Stream < cands[b].Stream
		}
		return cands[a].Meta.Packet < cands[b].Meta.Packet
	})
	return cands
}

// SelectWithinBudget picks the maximum prefix of the sorted candidates
// whose total DNN latency fits within the budget (§5.2's real-time
// constraint). latencyOf maps a candidate to its inference latency.
func SelectWithinBudget(cands []Candidate, latencyOf func(Candidate) time.Duration, budget time.Duration) []Candidate {
	sorted := SortCandidates(append([]Candidate(nil), cands...))
	var out []Candidate
	var used time.Duration
	for _, c := range sorted {
		lat := latencyOf(c)
		if used+lat > budget {
			// Tiers have heterogeneous costs only across streams; keep
			// scanning so cheaper candidates can still fit.
			continue
		}
		used += lat
		out = append(out, c)
	}
	return out
}

// SelectTopNByGain picks the n candidates with the highest gains,
// ignoring the frame-type tiers. This is how the NEMO baseline selects:
// its measured per-frame losses already subsume the structural priority
// the zero-inference algorithm gets from grouping.
func SelectTopNByGain(cands []Candidate, n int) []Candidate {
	sorted := append([]Candidate(nil), cands...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Gain != sorted[b].Gain {
			return sorted[a].Gain > sorted[b].Gain
		}
		return sorted[a].Meta.Packet < sorted[b].Meta.Packet
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	if n < 0 {
		n = 0
	}
	return sorted[:n]
}

// SelectTopN picks the n highest-priority candidates.
func SelectTopN(cands []Candidate, n int) []Candidate {
	sorted := SortCandidates(append([]Candidate(nil), cands...))
	if n > len(sorted) {
		n = len(sorted)
	}
	if n < 0 {
		n = 0
	}
	return sorted[:n]
}

// PacketSet converts a candidate list into a packet-index set, suitable
// for sr.EnhanceStream. Only candidates of the given stream are included.
func PacketSet(cands []Candidate, stream int) map[int]bool {
	set := make(map[int]bool)
	for _, c := range cands {
		if c.Stream == stream {
			set[c.Meta.Packet] = true
		}
	}
	return set
}

// KeyAnchors returns the Key-SR baseline: key-frame packets only.
func KeyAnchors(metas []FrameMeta) []int {
	var out []int
	for _, m := range metas {
		if m.Type == vcodec.Key {
			out = append(out, m.Packet)
		}
	}
	return out
}

// KeyUniformAnchors returns the Key+Uniform baseline: key frames plus
// equally spaced visible frames such that the total reaches the given
// fraction of packets. fraction is clamped to [0, 1].
func KeyUniformAnchors(metas []FrameMeta, fraction float64) []int {
	if fraction < 0 {
		fraction = 0
	} else if fraction > 1 {
		fraction = 1
	}
	selected := make(map[int]bool)
	for _, p := range KeyAnchors(metas) {
		selected[p] = true
	}
	target := int(math.Round(fraction * float64(len(metas))))
	if extra := target - len(selected); extra > 0 {
		// Equally spaced positions across the whole sequence.
		step := float64(len(metas)) / float64(extra)
		for i := 0; i < extra; i++ {
			// Both products are rounded before the add (step/2 compiles to
			// one), so architectures that fuse multiply-adds pick the same
			// position.
			idx := int(float64(float64(i)*step) + float64(step/2))
			if idx >= len(metas) {
				idx = len(metas) - 1
			}
			// Walk forward to the nearest unselected packet.
			for j := 0; j < len(metas); j++ {
				k := (idx + j) % len(metas)
				if !selected[k] {
					selected[k] = true
					break
				}
			}
		}
	}
	out := make([]int, 0, len(selected))
	for p := range selected {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
