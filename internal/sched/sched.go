// Package sched implements the anchor-aware resource scheduler (§5.2):
// a centralized global anchor selector that picks the most beneficial
// anchor frames across all streams under the cluster's real-time budget,
// and an anchor-level load balancer that partitions the selected anchors
// across computing instances. It also provides the anchor-agnostic
// baseline (round-robin stream placement with per-instance local
// pipelines) that Figures 6 and 25 compare against, and the two trade-off
// policies (cost-effective and latency-sensitive).
package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/anchor"
)

// Policy fixes the scheduling interval (§5.2 trade-off policies).
type Policy struct {
	Name string
	// Interval is the anchor selection interval T_intv.
	Interval time.Duration
	// IntervalFrames is the number of display frames per interval at the
	// nominal 60 fps.
	IntervalFrames int
}

// CostEffective is the default policy: 666 ms (40 frames at 60 fps),
// operating at the knee of the cost/quality curve.
func CostEffective() Policy {
	return Policy{Name: "cost-effective", Interval: 666 * time.Millisecond, IntervalFrames: 40}
}

// LatencySensitive is the video-conferencing policy: 66 ms (4 frames at
// 60 fps) to meet the 200 ms end-to-end budget.
func LatencySensitive() Policy {
	return Policy{Name: "latency-sensitive", Interval: 66 * time.Millisecond, IntervalFrames: 4}
}

// StreamInterval is one stream's input to a scheduling round: the codec
// metadata of the frames that arrived during the interval and the
// per-anchor inference latency at this stream's resolution and model.
type StreamInterval struct {
	StreamID int
	Metas    []anchor.FrameMeta
	// AnchorLatency is T_DNN for one anchor of this stream.
	AnchorLatency time.Duration
}

// Assignment maps one selected anchor to a computing instance.
type Assignment struct {
	StreamID int
	Packet   int
	Group    anchor.Group
	Gain     float64
	Latency  time.Duration
	Instance int
}

// Plan is the output of one scheduling round.
type Plan struct {
	Assignments []Assignment
	// LoadPerInstance is the summed anchor latency per instance.
	LoadPerInstance []time.Duration
	// AnchorsPerStream counts selected anchors keyed by stream ID.
	AnchorsPerStream map[int]int
	// InstancesNeeded is ceil(ΣT_DNN / T_intv): the auto-scaling size
	// that would fit every candidate worth selecting.
	InstancesNeeded int
}

// Scheduler is the anchor-aware scheduler.
type Scheduler struct {
	policy    Policy
	instances int

	// MaxAnchorFraction, when positive, caps the total anchors selected
	// per round at this fraction of all frames, in addition to the
	// real-time budget. The cost-effective policy operates at the knee
	// fraction (§5.2): past it, extra anchors return marginal quality, so
	// capacity beyond the knee is left for more streams instead.
	MaxAnchorFraction float64

	mu sync.Mutex
	// down is guarded by mu.
	down map[int]bool
	// inflight tracks the modeled inference time dispatched to each
	// instance and not yet reported complete, so overlapping rounds
	// (pipelined dispatch) don't double-book capacity. Both tallies are
	// guarded by mu.
	inflight     []time.Duration
	inflightJobs []int
}

// New returns a scheduler for a cluster of the given instance count.
func New(policy Policy, instances int) (*Scheduler, error) {
	if policy.Interval <= 0 {
		return nil, errors.New("sched: policy interval must be positive")
	}
	if instances < 1 {
		return nil, errors.New("sched: need at least one instance")
	}
	return &Scheduler{
		policy:       policy,
		instances:    instances,
		inflight:     make([]time.Duration, instances),
		inflightJobs: make([]int, instances),
	}, nil
}

// Policy returns the scheduler's policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// SetInstanceDown marks instance i lost (or recovered). Scheduling
// rounds rebalance the anchor budget across surviving instances: the
// cluster budget shrinks to T_intv × alive and no anchors are assigned
// to a down instance. Safe for concurrent use with Schedule, so a
// health checker can drive it. Returns an error for an unknown index.
func (s *Scheduler) SetInstanceDown(i int, down bool) error {
	if i < 0 || i >= s.instances {
		return fmt.Errorf("sched: instance %d out of range [0,%d)", i, s.instances)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down == nil {
		s.down = make(map[int]bool)
	}
	if down {
		s.down[i] = true
	} else {
		delete(s.down, i)
	}
	return nil
}

// InstanceDown reports whether instance i is currently marked lost.
func (s *Scheduler) InstanceDown(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down[i]
}

// Alive returns the indices of instances not marked down, in order.
func (s *Scheduler) Alive() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aliveLocked()
}

func (s *Scheduler) aliveLocked() []int {
	alive := make([]int, 0, s.instances)
	for i := 0; i < s.instances; i++ {
		if !s.down[i] {
			alive = append(alive, i)
		}
	}
	return alive
}

// NoteDispatch records that work with modeled inference time d has been
// dispatched to instance i and is now in flight. Until the matching
// NoteComplete, subsequent scheduling rounds see instance i's interval
// budget reduced by d, so a round that overlaps still-running work does
// not double-book the instance.
func (s *Scheduler) NoteDispatch(i int, d time.Duration) error {
	if i < 0 || i >= s.instances {
		return fmt.Errorf("sched: instance %d out of range [0,%d)", i, s.instances)
	}
	if d < 0 {
		return fmt.Errorf("sched: negative in-flight duration %v", d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight[i] += d
	s.inflightJobs[i]++
	return nil
}

// NoteComplete records that previously dispatched work of modeled
// inference time d on instance i has finished, releasing its budget.
func (s *Scheduler) NoteComplete(i int, d time.Duration) error {
	if i < 0 || i >= s.instances {
		return fmt.Errorf("sched: instance %d out of range [0,%d)", i, s.instances)
	}
	if d < 0 {
		return fmt.Errorf("sched: negative in-flight duration %v", d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight[i] -= d
	if s.inflight[i] < 0 {
		s.inflight[i] = 0
	}
	if s.inflightJobs[i]--; s.inflightJobs[i] < 0 {
		s.inflightJobs[i] = 0
	}
	return nil
}

// InFlight returns a snapshot of the residual modeled load per instance.
func (s *Scheduler) InFlight() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Duration, s.instances)
	copy(out, s.inflight)
	return out
}

// InFlightJobs returns a snapshot of outstanding job counts per instance.
func (s *Scheduler) InFlightJobs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, s.instances)
	copy(out, s.inflightJobs)
	return out
}

// capacitiesLocked returns each instance's residual interval budget:
// T_intv minus the in-flight load, floored at zero.
func (s *Scheduler) capacitiesLocked() []time.Duration {
	caps := make([]time.Duration, s.instances)
	for i := range caps {
		caps[i] = s.policy.Interval - s.inflight[i]
		if caps[i] < 0 {
			caps[i] = 0
		}
	}
	return caps
}

// Schedule runs one round: global zero-inference gain estimation, global
// selection under the cluster budget T_intv × M, and anchor-level load
// balancing into per-instance groups each bounded by T_intv.
func (s *Scheduler) Schedule(streams []StreamInterval) (*Plan, error) {
	cands, latency, err := globalCandidates(streams)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	alive := s.aliveLocked()
	caps := s.capacitiesLocked()
	s.mu.Unlock()
	// Instance loss rebalances instead of failing, and in-flight work from
	// overlapped rounds is subtracted first: the budget shrinks to the
	// surviving residual capacity and selection tightens accordingly.
	var budget time.Duration
	for _, i := range alive {
		budget += caps[i]
	}
	selected := anchor.SelectWithinBudget(cands, latency, budget)
	if s.MaxAnchorFraction > 0 {
		// Rounded before the add: a fused multiply-add could round the
		// cap differently on another architecture.
		if cap := int(float64(s.MaxAnchorFraction*float64(len(cands))) + 0.5); len(selected) > cap {
			selected = selected[:cap]
		}
	}
	return s.balance(selected, latency, alive, caps)
}

// globalCandidates merges per-stream gain estimates into one global
// candidate pool (§5.2 ①: "merge per-stream groups into global groups").
func globalCandidates(streams []StreamInterval) ([]anchor.Candidate, func(anchor.Candidate) time.Duration, error) {
	latencyByStream := make(map[int]time.Duration, len(streams))
	var all []anchor.Candidate
	for _, st := range streams {
		if st.AnchorLatency <= 0 {
			return nil, nil, fmt.Errorf("sched: stream %d has non-positive anchor latency", st.StreamID)
		}
		if _, dup := latencyByStream[st.StreamID]; dup {
			return nil, nil, fmt.Errorf("sched: duplicate stream ID %d", st.StreamID)
		}
		latencyByStream[st.StreamID] = st.AnchorLatency
		cands := anchor.ZeroInferenceGains(st.Metas)
		for i := range cands {
			cands[i].Stream = st.StreamID
		}
		all = append(all, cands...)
	}
	latency := func(c anchor.Candidate) time.Duration { return latencyByStream[c.Stream] }
	return all, latency, nil
}

// balance partitions selected anchors into per-instance groups using
// longest-processing-time-first bin packing, never exceeding each
// instance's residual budget (T_intv minus in-flight load) and never
// touching a lost instance (§5.2 ②).
func (s *Scheduler) balance(selected []anchor.Candidate, latency func(anchor.Candidate) time.Duration, alive []int, caps []time.Duration) (*Plan, error) {
	// LPT: place expensive anchors first, each on the least-loaded
	// instance that still has room.
	order := make([]anchor.Candidate, len(selected))
	copy(order, selected)
	sort.SliceStable(order, func(a, b int) bool {
		return latency(order[a]) > latency(order[b])
	})
	load := make([]time.Duration, s.instances)
	plan := &Plan{
		LoadPerInstance:  load,
		AnchorsPerStream: make(map[int]int),
	}
	var total time.Duration
	for _, c := range order {
		lat := latency(c)
		total += lat
		best := -1
		for _, i := range alive {
			if load[i]+lat > caps[i] {
				continue
			}
			if best < 0 || load[i] < load[best] {
				best = i
			}
		}
		if best < 0 {
			// The global budget admitted this candidate but fragmentation
			// leaves no single instance with room; drop it (the real-time
			// constraint is strict).
			continue
		}
		load[best] += lat
		plan.Assignments = append(plan.Assignments, Assignment{
			StreamID: c.Stream,
			Packet:   c.Meta.Packet,
			Group:    c.Group,
			Gain:     c.Gain,
			Latency:  lat,
			Instance: best,
		})
		plan.AnchorsPerStream[c.Stream]++
	}
	plan.InstancesNeeded = int((total + s.policy.Interval - 1) / s.policy.Interval)
	if plan.InstancesNeeded < 1 && total > 0 {
		plan.InstancesNeeded = 1
	}
	return plan, nil
}

// ScheduleAgnostic is the anchor-agnostic baseline (§3.2): streams are
// assigned to surviving instances round-robin in the order given, and
// each instance runs a local selection over only its own streams with
// its own T_intv budget. Quality suffers from per-stream anchor
// imbalance.
func (s *Scheduler) ScheduleAgnostic(streams []StreamInterval) (*Plan, error) {
	load := make([]time.Duration, s.instances)
	plan := &Plan{
		LoadPerInstance:  load,
		AnchorsPerStream: make(map[int]int),
	}
	alive := s.Alive()
	if len(alive) == 0 {
		return plan, nil
	}
	perInstance := make(map[int][]StreamInterval, len(alive))
	for i, st := range streams {
		inst := alive[i%len(alive)]
		perInstance[inst] = append(perInstance[inst], st)
	}
	var total time.Duration
	for _, inst := range alive {
		group := perInstance[inst]
		cands, latency, err := globalCandidates(group)
		if err != nil {
			return nil, err
		}
		selected := anchor.SelectWithinBudget(cands, latency, s.policy.Interval)
		for _, c := range selected {
			lat := latency(c)
			load[inst] += lat
			total += lat
			plan.Assignments = append(plan.Assignments, Assignment{
				StreamID: c.Stream,
				Packet:   c.Meta.Packet,
				Group:    c.Group,
				Gain:     c.Gain,
				Latency:  lat,
				Instance: inst,
			})
			plan.AnchorsPerStream[c.Stream]++
		}
	}
	plan.InstancesNeeded = int((total + s.policy.Interval - 1) / s.policy.Interval)
	return plan, nil
}
