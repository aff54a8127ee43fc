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
	"cmp"
	"math"
	"slices"
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
	// One scratch buffer serves both groups: the groups are disjoint, so
	// each estimate writes the gains of its own frames only.
	st := make([]frameState, len(metas))
	for i, m := range metas {
		if override != nil {
			st[i].signal = override[i]
		} else {
			st[i].signal = m.Residual
		}
	}
	out := make([]Candidate, 0, len(metas))
	// Per-group estimation, as in Algorithm 1's "candidates: frames
	// within a group".
	estimateGroup(metas, st, GroupAltRef)
	estimateGroup(metas, st, GroupNormal)
	for i, m := range metas {
		c := Candidate{Meta: m, Group: groupOf(m.Type)}
		if c.Group == GroupKey {
			// Key frames have equal (categorical) gain: they do not
			// affect accumulated residual but reset it.
			c.Gain = math.Inf(1)
		} else {
			c.Gain = st[i].gain
		}
		out = append(out, c)
	}
	return out
}

// frameState is Algorithm 1's working state for one frame: its residual
// signal, its accumulated residual, its estimated gain and whether it was
// chosen in an earlier iteration.
type frameState struct {
	signal, acc, gain float64
	done              bool
}

// estimateGroup implements Algorithm 1 (Per-group Anchor Gain Estimation)
// for the candidates of one group, storing the gain of each in st at its
// position in metas. It resets the accumulated residuals and the chosen
// marks of every frame, and writes no gain outside the group.
func estimateGroup(metas []FrameMeta, st []frameState, g Group) {
	// CalcResidual: accumulated residual, reset at key frames.
	run := 0.0
	remaining := 0
	for i, m := range metas {
		if m.Type == vcodec.Key {
			run = 0
		} else {
			run += st[i].signal
		}
		st[i].acc, st[i].done = run, false
		if groupOf(m.Type) == g {
			remaining++
		}
	}
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, math.Inf(-1)
		for i, m := range metas {
			if groupOf(m.Type) != g || st[i].done {
				continue
			}
			gain := reducedResidual(metas, st, i)
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		st[best].done = true
		st[best].gain = bestGain
		updateResidual(st, best)
	}
}

// reducedResidual computes ΔRes(F[i]) = (k - i) × Res[i], where k is the
// closest later index at which the residual resets: a key frame, a frame
// already chosen in a previous iteration, or — if neither exists — the
// predicted key frame of the next chunk (one past the end).
func reducedResidual(metas []FrameMeta, st []frameState, i int) float64 {
	n := len(metas)
	k := n // predicted next-chunk key frame
	for j := i + 1; j < n; j++ {
		if metas[j].Type == vcodec.Key || st[j].done {
			k = j
			break
		}
	}
	return float64(k-i) * st[i].acc
}

// updateResidual subtracts the chosen frame's accumulated residual from
// every following frame until the residual next resets (Algorithm 1,
// UpdateResidual).
func updateResidual(st []frameState, index int) {
	delta := st[index].acc
	for i := index; i < len(st); i++ {
		if i > index && st[i].acc <= 0 {
			break
		}
		st[i].acc -= delta
		if st[i].acc < 0 {
			st[i].acc = 0
		}
	}
}

// OneShotGains returns each frame's standalone reduced residual
// ΔRes(F[i]) = (k - i) × Res[i], evaluated with no other anchors chosen.
// This is the quantity Figure 9(b) correlates against measured quality
// gain; the iterative estimates of ZeroInferenceGains additionally
// discount frames selected after their neighbours.
func OneShotGains(metas []FrameMeta) []float64 {
	st := make([]frameState, len(metas))
	run := 0.0
	for i, m := range metas {
		if m.Type == vcodec.Key {
			run = 0
		} else {
			run += m.Residual
		}
		st[i].acc = run
	}
	out := make([]float64, len(metas))
	for i := range metas {
		out[i] = reducedResidual(metas, st, i)
	}
	return out
}

// SortCandidates orders candidates by tier (key, altref, normal) and by
// descending gain within a tier; ties keep decode order for determinism.
// It sorts in place and returns its argument for chaining.
func SortCandidates(cands []Candidate) []Candidate {
	slices.SortStableFunc(cands, byPriority)
	return cands
}

// byPriority is SortCandidates' order: tier, then descending gain, then
// stream and packet.
func byPriority(a, b Candidate) int {
	if a.Group != b.Group {
		return cmp.Compare(a.Group, b.Group)
	}
	if a.Gain != b.Gain {
		return cmp.Compare(b.Gain, a.Gain)
	}
	if a.Stream != b.Stream {
		return cmp.Compare(a.Stream, b.Stream)
	}
	return cmp.Compare(a.Meta.Packet, b.Meta.Packet)
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
	slices.SortStableFunc(sorted, byGain)
	if n > len(sorted) {
		n = len(sorted)
	}
	if n < 0 {
		n = 0
	}
	return sorted[:n]
}

// byGain is SelectTopNByGain's order: descending gain, then packet.
func byGain(a, b Candidate) int {
	if a.Gain != b.Gain {
		return cmp.Compare(b.Gain, a.Gain)
	}
	return cmp.Compare(a.Meta.Packet, b.Meta.Packet)
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
