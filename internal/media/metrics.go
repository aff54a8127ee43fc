package media

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyHist is a fixed-bucket latency histogram with lock-free
// observation: per-bucket counters plus a running sum and max. The max
// stands in for the +Inf bucket's upper bound when reading quantiles,
// so a p99 pulled from the histogram is never reported lower than an
// observation that actually happened. It backs the origin's overload
// observables and the edge tier's hit/miss serve-latency split.
type LatencyHist struct {
	bounds []time.Duration // ascending upper bounds; one extra +Inf bucket
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Int64    // nanoseconds
	max    atomic.Int64    // nanoseconds
}

// defaultLatencyBounds spans sub-millisecond queue blips to multi-second
// overload tails (1ms..8s, doubling).
func defaultLatencyBounds() []time.Duration {
	bounds := make([]time.Duration, 0, 14)
	for d := time.Millisecond; d <= 8*time.Second; d *= 2 {
		bounds = append(bounds, d)
	}
	return bounds
}

// NewLatencyHist returns an empty histogram over the default bounds.
func NewLatencyHist() *LatencyHist {
	bounds := defaultLatencyBounds()
	return &LatencyHist{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count reports the total number of observations.
func (h *LatencyHist) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile reports an upper bound for the q-quantile (0 < q <= 1): the
// upper bound of the bucket holding the rank-q observation, with the
// recorded max standing in for the +Inf bucket. Zero observations yield
// zero.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= rank {
			return h.bounds[i]
		}
	}
	return time.Duration(h.max.Load())
}

// WritePrometheus emits the histogram in Prometheus text exposition
// format (cumulative le buckets in seconds) under name.
func (h *LatencyHist) WritePrometheus(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b.Seconds(), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(h.sum.Load()).Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// WriteCounter emits one Prometheus counter.
func WriteCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// WriteGauge emits one Prometheus gauge.
func WriteGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// writeFamily emits one labelled metric family: the header, then one
// sample per row.
func writeFamily(w io.Writer, name, typ, help string, rows int, row func(i int) (labels string, v any)) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for i := 0; i < rows; i++ {
		labels, v := row(i)
		fmt.Fprintf(w, "%s{%s} %v\n", name, labels, v)
	}
}

// writeStageMetrics emits the pipeline's per-stage accounting — time spent
// and runs, one sample per stage under each name — so a per-stage average
// is one division on a dashboard.
func writeStageMetrics(w io.Writer, st StageStats) {
	stages := []struct {
		name string
		ms   float64
		runs uint64
	}{
		{"decode", st.DecodeMsTotal, st.DecodeCount},
		{"select", st.SelectMsTotal, st.SelectCount},
		{"enhance_wait", st.EnhanceWaitMsTotal, st.EnhanceWaitCount},
		{"package", st.PackageMsTotal, st.PackageCount},
	}
	label := func(i int) string { return fmt.Sprintf("stage=%q", stages[i].name) }
	writeFamily(w, "neuroscaler_stage_seconds_total", "counter", "Time spent in each pipeline stage, summed over chunks.", len(stages),
		func(i int) (string, any) { return label(i), stages[i].ms / 1e3 })
	writeFamily(w, "neuroscaler_stage_runs_total", "counter", "Times each pipeline stage ran.", len(stages),
		func(i int) (string, any) { return label(i), stages[i].runs })
}

// writeReplicaMetrics emits the pool's per-replica series — traffic
// counters, the placement ledger and the breaker state — one sample per
// replica under each name, so an idle or tripped replica beside a loaded
// one shows on a dashboard.
func writeReplicaMetrics(w io.Writer, stats []ReplicaStat) {
	label := func(i int) string { return fmt.Sprintf("replica=%q", stats[i].ID) }
	writeFamily(w, "neuroscaler_pool_replica_dispatches_total", "counter", "Round trips sent to the replica (a batch is one).", len(stats),
		func(i int) (string, any) { return label(i), stats[i].Dispatches })
	writeFamily(w, "neuroscaler_pool_replica_anchors_total", "counter", "Anchor jobs placed on the replica.", len(stats),
		func(i int) (string, any) { return label(i), stats[i].Anchors })
	writeFamily(w, "neuroscaler_pool_replica_outstanding", "gauge", "Modelled work (LR anchor pixels) dispatched to the replica and not yet returned.", len(stats),
		func(i int) (string, any) { return label(i), stats[i].Outstanding })
	writeFamily(w, "neuroscaler_pool_replica_breaker_state", "gauge", "Breaker state of the replica, as the state label (the sample is always 1).", len(stats),
		func(i int) (string, any) { return label(i) + fmt.Sprintf(",state=%q", stats[i].State), 1 })
}
