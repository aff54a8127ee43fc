package media

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/faults"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// costJobs builds jobs whose modelled cost (LR frame area) is costs[i].
func costJobs(costs ...int) []wire.AnchorJob {
	jobs := make([]wire.AnchorJob, len(costs))
	for i, c := range costs {
		jobs[i] = wire.AnchorJob{Packet: i, Frame: &frame.Frame{W: c, H: 1}}
	}
	return jobs
}

func TestPlaceJobsTable(t *testing.T) {
	const all = ^uint64(0)
	cases := []struct {
		name       string
		load       []int64
		skip       uint64
		start      int
		admissible uint64
		costs      []int
		want       []int8
	}{
		{"idle pair splits from the cursor", []int64{0, 0}, 0, 0, all, []int{1, 1}, []int8{0, 1}},
		{"cursor only breaks the tie", []int64{0, 0}, 0, 1, all, []int{1, 1}, []int8{1, 0}},
		{"charged replica is passed over", []int64{2, 0}, 0, 0, all, []int{1, 1}, []int8{1, 1}},
		{"charge of one evens out", []int64{1, 0}, 0, 0, all, []int{1, 1, 1}, []int8{1, 0, 1}},
		{"unequal costs balance by work", []int64{0, 0}, 0, 0, all, []int{4, 1, 1, 1}, []int8{0, 1, 1, 1}},
		{"rejected replica gets nothing", []int64{0, 5, 5}, 0, 0, 0b110, []int{1, 1}, []int8{1, 2}},
		{"skipped replica gets nothing", []int64{0, 5}, 0b01, 0, all, []int{1, 1}, []int8{1, 1}},
		{"nobody admits", []int64{0, 0}, 0, 0, 0, []int{1, 1}, []int8{-1, -1}},
		{"everybody skipped", []int64{0}, 0b1, 0, all, []int{1}, []int8{-1}},
		{"more replicas than jobs", []int64{3, 1, 2, 0}, 0, 0, all, []int{1, 1}, []int8{3, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assign := make([]int8, len(tc.costs))
			placeJobs(tc.load, tc.skip, tc.start, costJobs(tc.costs...), assign,
				func(r int) bool { return tc.admissible>>r&1 != 0 })
			if !slices.Equal(assign, tc.want) {
				t.Errorf("assign = %v, want %v", assign, tc.want)
			}
		})
	}
}

// TestPlaceJobsProperties drives the placement rule with seeded random
// loads, costs, cursors, skip sets and admissible sets and checks what
// every caller leans on.
func TestPlaceJobsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		equal := trial%2 == 0 // even trials: equal loads, everyone admits
		load := make([]int64, n)
		base := int64(rng.Intn(50))
		for r := range load {
			load[r] = base
			if !equal {
				load[r] = int64(rng.Intn(50))
			}
		}
		admissible, skip := ^uint64(0), uint64(0)
		if !equal {
			admissible, skip = rng.Uint64(), rng.Uint64()&rng.Uint64()
		}
		start := rng.Intn(n)
		costs := make([]int, 1+rng.Intn(9))
		maxCost := 0
		for i := range costs {
			costs[i] = 1 + rng.Intn(20)
			maxCost = max(maxCost, costs[i])
		}
		jobs := costJobs(costs...)

		run := func() (assign []int8, after []int64, placed uint64, asked []int) {
			after = slices.Clone(load)
			assign = make([]int8, len(jobs))
			asked = make([]int, n)
			placed = placeJobs(after, skip, start, jobs, assign, func(r int) bool {
				asked[r]++
				return admissible>>r&1 != 0
			})
			return
		}
		assign, after, placed, asked := run()
		label := fmt.Sprintf("trial %d (n=%d load=%v skip=%b admissible=%b start=%d costs=%v): assign %v",
			trial, n, load, skip, admissible&(1<<n-1), start, costs, assign)

		usable := admissible &^ skip & (1<<n - 1)
		var got uint64
		want := slices.Clone(load)
		for i, a := range assign {
			switch {
			case a < 0:
				if usable != 0 {
					t.Fatalf("%s: job %d unplaced with replicas %b usable", label, i, usable)
				}
			case int(a) >= n || usable>>a&1 == 0:
				t.Fatalf("%s: job %d placed on skipped or non-admitted replica %d", label, i, a)
			default:
				got |= 1 << a
				want[a] += int64(costs[i])
			}
		}
		if got != placed {
			t.Fatalf("%s: returned placed set %b, assign says %b", label, placed, got)
		}
		if !slices.Equal(after, want) {
			t.Fatalf("%s: loads after = %v, want %v", label, after, want)
		}
		for r, k := range asked {
			// The half-open rule: a breaker is asked at most once, and a
			// replica it admitted always receives work.
			if k > 1 || skip>>r&1 != 0 && k > 0 {
				t.Fatalf("%s: replica %d asked for admission %d times", label, r, k)
			}
			if k == 1 && admissible>>r&1 != 0 && placed>>r&1 == 0 {
				t.Fatalf("%s: replica %d admitted and given nothing", label, r)
			}
		}
		if equal {
			if spread := slices.Max(after) - slices.Min(after); spread > int64(maxCost) {
				t.Fatalf("%s: load spread %d exceeds one job's cost %d", label, spread, maxCost)
			}
		}
		if again, _, _, _ := run(); !slices.Equal(again, assign) {
			t.Fatalf("%s: second run assigned %v", label, again)
		}
	}
}

// devicePool is n exclusive devices (bench_test.go's deviceReplica) over
// a scripted enhancer.
func devicePool(t *testing.T, n int) *EnhancerPool {
	t.Helper()
	replicas := make([]Replica, n)
	for i := range replicas {
		replicas[i] = StaticReplica(fmt.Sprintf("dev%d", i),
			&deviceReplica{modeledReplica: modeledReplica{inner: &ctrlEnhancer{}, frames: 1 << 20}})
	}
	p, err := NewEnhancerPool(replicas, quickPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPoolPlacesChunkAcrossDevices is the ingest_gpu case in miniature: a
// chunk's two anchors on an idle two-device pool go one to each device
// (two plain anchor jobs side by side, not one batch of two on one
// device), and with one device already charged with two anchors' work
// both go to the other as one batch. Counts, not wall-clock, are
// asserted.
func TestPoolPlacesChunkAcrossDevices(t *testing.T) {
	p := devicePool(t, 2)
	chunk := []wire.AnchorJob{{Packet: 0}, {Packet: 7}}
	enhance := func() {
		t.Helper()
		outs, err := p.EnhanceBatch(1, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if o.Err != nil || o.Res.Packet != chunk[i].Packet {
				t.Fatalf("outcome %d = %+v, want anchor %d", i, o, chunk[i].Packet)
			}
		}
	}
	requireStats := func(when string, dispatches, anchors [2]uint64) {
		t.Helper()
		for i, st := range p.ReplicaStats() {
			if st.Dispatches != dispatches[i] || st.Anchors != anchors[i] {
				t.Errorf("%s: %s carried %d dispatches / %d anchors, want %d / %d",
					when, st.ID, st.Dispatches, st.Anchors, dispatches[i], anchors[i])
			}
		}
	}

	enhance()
	requireStats("idle pool", [2]uint64{1, 1}, [2]uint64{1, 1})
	requireLedgerClosed(t, p)

	busy := p.replicas[0]
	busy.outstanding.Add(2 * jobCost(chunk[0]))
	enhance()
	requireStats("dev0 charged with two", [2]uint64{1, 2}, [2]uint64{1, 3})
	busy.outstanding.Add(-2 * jobCost(chunk[0]))
	requireLedgerClosed(t, p)

	if c := p.Counters(); c.Calls != 0 || c.Retries != 0 || c.Failovers != 0 {
		t.Errorf("healthy groups touched the per-anchor ledger: %+v", c)
	}
}

// TestBatchRescueStartsAwayFromFailedReplica pins the rescue's tried-set:
// an anchor its group did not land must make its first rescue attempt on
// another replica. One replica of two fails anchors at a seeded rate
// (whole singleton groups and members of real batches alike; the breaker
// is kept out of it), the other is healthy, so every rescued anchor
// lands first try: one failover each, and the backoff ladder — whose
// steps Retries counts — is never entered.
func TestBatchRescueStartsAwayFromFailedReplica(t *testing.T) {
	for _, perBatch := range []int{2, 4} {
		t.Run(fmt.Sprintf("batch-of-%d", perBatch), func(t *testing.T) {
			inj := faults.MustInjector(11, faults.Config{ErrorRate: 0.5})
			// The healthy replica is a fault-free FlakyEnhancer so that it
			// batches like its peer.
			healthy := faults.MustInjector(1, faults.Config{})
			cfg := quickPoolConfig()
			cfg.BreakerThreshold = 1 << 30
			p, err := NewEnhancerPool([]Replica{
				StaticReplica("flaky", &faults.FlakyEnhancer{Inner: &ctrlEnhancer{}, Inj: inj}),
				StaticReplica("good", &faults.FlakyEnhancer{Inner: &ctrlEnhancer{}, Inj: healthy}),
			}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			const batches = 32
			jobs := make([]wire.AnchorJob, perBatch)
			for b := 0; b < batches; b++ {
				for i := range jobs {
					jobs[i] = wire.AnchorJob{Packet: b*perBatch + i}
				}
				outs, err := p.EnhanceBatch(3, jobs)
				if err != nil {
					t.Fatal(err)
				}
				for i, o := range outs {
					if o.Err != nil || o.Res.Packet != jobs[i].Packet {
						t.Fatalf("batch %d outcome %d = %+v", b, i, o)
					}
				}
			}
			rescued := uint64(inj.Count(faults.Error))
			if rescued == 0 || rescued == batches*uint64(perBatch)/2 {
				t.Fatalf("seeded injector failed %d anchors; the test needs some, not all", rescued)
			}
			c := p.Counters()
			if c.Calls != rescued || c.Failovers != rescued || c.Retries != 0 || c.Unavailable != 0 {
				t.Errorf("counters = %+v, want %d rescue calls, %d failovers, 0 retries", c, rescued, rescued)
			}
			stats := p.ReplicaStats()
			if half := uint64(batches * perBatch / 2); stats[0].Anchors != half || stats[1].Anchors != half+rescued {
				t.Errorf("anchors placed = %d flaky / %d good, want %d / %d (every rescue on the good replica)",
					stats[0].Anchors, stats[1].Anchors, half, half+rescued)
			}
			requireLedgerClosed(t, p)
		})
	}
}

func TestPoolRejectsMoreReplicasThanTheMaskHolds(t *testing.T) {
	replicas := make([]Replica, maxPoolReplicas+1)
	for i := range replicas {
		replicas[i] = StaticReplica("", &ctrlEnhancer{})
	}
	if _, err := NewEnhancerPool(replicas, quickPoolConfig()); err == nil {
		t.Errorf("pool of %d replicas accepted; the replica bitmask holds %d", len(replicas), maxPoolReplicas)
	}
	if p, err := NewEnhancerPool(replicas[:maxPoolReplicas], quickPoolConfig()); err != nil {
		t.Errorf("pool of %d replicas rejected: %v", maxPoolReplicas, err)
	} else {
		p.Close()
	}
}

// firstFail is a batch-capable replica whose first n jobs of every group
// fail, each on its own.
type firstFail struct{ n atomic.Int32 }

func (e *firstFail) Enhance(_ uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	return wire.AnchorResult{Packet: job.Packet, Encoded: []byte{1}}, nil
}

func (e *firstFail) EnhanceBatch(_ uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	outs := make([]AnchorOutcome, len(jobs))
	for i, job := range jobs {
		if i < int(e.n.Load()) {
			outs[i].Err = fmt.Errorf("anchor %d: scripted failure", job.Packet)
		} else {
			outs[i].Res = wire.AnchorResult{Packet: job.Packet, Encoded: []byte{1}}
		}
	}
	return outs, nil
}

// TestReplicaBreakerHearsWholeGroupFailuresOnly is the breaker rule of the
// one dispatch method: a round trip none of whose anchors landed is a
// failure, any other a success, whatever the group size — for a group of
// one that is the per-anchor rule. From a closed breaker (threshold 1) and
// from a half-open one whose probe the group is: exactly one report either
// way, the probe cleared, the ledger back at 0.
func TestReplicaBreakerHearsWholeGroupFailuresOnly(t *testing.T) {
	type tc struct{ size, failing int }
	cases := []tc{{1, 0}, {1, 1}, {2, 0}, {2, 1}, {2, 2}, {4, 0}, {4, 2}, {4, 4}}
	for _, c := range cases {
		for _, halfOpen := range []bool{false, true} {
			t.Run(fmt.Sprintf("group-%d-failing-%d-halfopen-%v", c.size, c.failing, halfOpen), func(t *testing.T) {
				e := &firstFail{}
				cfg := quickPoolConfig()
				cfg.BreakerThreshold = 1
				p, err := NewEnhancerPool([]Replica{StaticReplica("solo", e)}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				rep := p.replicas[0]
				run := func(size, failing int) []AnchorOutcome {
					t.Helper()
					e.n.Store(int32(failing))
					jobs, assign := make([]wire.AnchorJob, size), make([]int8, size)
					for i := range jobs {
						jobs[i].Packet = i
					}
					if p.place(jobs, 0, assign) == 0 {
						t.Fatal("breaker admitted nothing")
					}
					outs := make([]AnchorOutcome, size)
					p.runGroup(rep, nil, 1, jobs, assign, outs)
					return outs
				}
				if halfOpen {
					run(1, 1) // opens the breaker
					time.Sleep(2 * cfg.BreakerCooldown)
				}
				before := p.Counters()
				dispatches := rep.dispatches.Load()
				outs := run(c.size, c.failing)

				for i, o := range outs {
					if (o.Err != nil) != (i < c.failing) {
						t.Errorf("outcome %d = %+v with the first %d scripted to fail", i, o, c.failing)
					}
				}
				after := p.Counters()
				opens, closes := after.BreakerOpens-before.BreakerOpens, after.BreakerCloses-before.BreakerCloses
				landed := c.failing < c.size
				wantState, wantOpens, wantCloses := BreakerClosed, uint64(0), uint64(0)
				switch {
				case !landed:
					wantState, wantOpens = BreakerOpen, 1
				case halfOpen:
					wantCloses = 1
				}
				if st := p.ReplicaStats()[0].State; st != wantState || opens != wantOpens || closes != wantCloses {
					t.Errorf("breaker %v after %d opens / %d closes, want %v after %d / %d",
						st, opens, closes, wantState, wantOpens, wantCloses)
				}
				rep.mu.Lock()
				probing := rep.probing
				rep.mu.Unlock()
				if probing {
					t.Error("the group's one report did not clear the half-open probe")
				}
				if got := rep.dispatches.Load() - dispatches; got != 1 {
					t.Errorf("group cost %d dispatches, want 1", got)
				}
				requireLedgerClosed(t, p)
			})
		}
	}
}

// meetEnhancer has Enhance only, and every call waits until `want` calls
// are inside it together.
type meetEnhancer struct {
	want int32
	in   atomic.Int32
	all  chan struct{}
}

func (e *meetEnhancer) Enhance(_ uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	if e.in.Add(1) == e.want {
		close(e.all)
	}
	select {
	case <-e.all:
		return wire.AnchorResult{Packet: job.Packet, Encoded: []byte{1}}, nil
	case <-time.After(5 * time.Second):
		return wire.AnchorResult{}, errors.New("the group's calls did not run side by side")
	}
}

// TestEnhanceOnlyReplicaGetsAGroupAsConcurrentCalls: a replica without
// EnhanceBatch receives a placed group of three as three concurrent
// Enhance calls inside one dispatch — no breaker charge, no rescue ladder.
func TestEnhanceOnlyReplicaGetsAGroupAsConcurrentCalls(t *testing.T) {
	e := &meetEnhancer{want: 3, all: make(chan struct{})}
	p, err := NewEnhancerPool([]Replica{StaticReplica("plain", e)}, quickPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	jobs := []wire.AnchorJob{{Packet: 2}, {Packet: 5}, {Packet: 9}}
	outs, err := p.EnhanceBatch(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil || o.Res.Packet != jobs[i].Packet {
			t.Errorf("outcome %d = %+v, want anchor %d", i, o, jobs[i].Packet)
		}
	}
	if st := p.ReplicaStats()[0]; st.Dispatches != 1 || st.Anchors != 3 || st.State != BreakerClosed {
		t.Errorf("replica = %+v, want 1 dispatch of 3 anchors, breaker closed", st)
	}
	if c := p.Counters(); c.Calls != 0 || c.Retries != 0 || c.Failovers != 0 || c.BreakerOpens != 0 {
		t.Errorf("counters = %+v, want the rescue ladder and the breaker untouched", c)
	}
	requireLedgerClosed(t, p)
}
