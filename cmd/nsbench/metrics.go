package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. N is the sample count behind it (the
// ops of a percentile or a per-op ratio); it is left out of the driver
// line, which carries value and unit only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricDef declares a metric of BENCHMARK.json. bound is the class
// bound of the issue (the floor for the bound written into the file);
// per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics every workload prints with -trace 0. The
// driver's contract wants each of them on each workload and never zero,
// so latency and throughput are named for the workload's primary op (see
// README.md, "What an op is") instead of per-role names that only some
// workloads could fill. The primary op's p90 is not here: between runs of
// unchanged code it spread 10-18 % on the CPU-bound workloads, more than
// a bound could usefully allow, so it is the per-layer op_p90_ms.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.20},
	{"op_cps", "chunks/s", "higher", 0.10},
	{"op_p50_ms", "ms", "lower", 0.08},
	{"cpu_ms_per_op", "ms", "lower", 0.08},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "KB", "lower", 0.02},
	{"gpu_anchors_per_chunk", "count", "lower", 0.01},
	{"psnr_gain_db", "dB", "higher", 0.005},
}

// perLayer lists the metrics every workload prints with -trace 1; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{name: "vcodec.encode_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "vcodec.decode_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "vcodec.decode_allocs_per_chunk", unit: "count", better: "lower"},
	{name: "anchor.select_us_per_chunk", unit: "us", better: "lower"},
	{name: "anchor.selected_per_chunk", unit: "count", better: "lower"},
	{name: "sr.apply_ms_per_anchor", unit: "ms", better: "lower"},
	{name: "icodec.encode_ms_per_anchor", unit: "ms", better: "lower"},
	{name: "icodec.decode_ms_per_anchor", unit: "ms", better: "lower"},
	{name: "icodec.anchor_bytes", unit: "B", better: "lower"},
	{name: "hybrid.marshal_us_per_chunk", unit: "us", better: "lower"},
	{name: "hybrid.container_bytes", unit: "B", better: "lower"},
	{name: "hybrid.decode_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "wire.chunk_write_us", unit: "us", better: "lower"},
	{name: "wire.chunk_read_us", unit: "us", better: "lower"},
	{name: "wire.chunk_bytes", unit: "B", better: "lower"},
	{name: "wire.chunkdata_read_us", unit: "us", better: "lower"},
	{name: "wire.allocs_per_frame", unit: "count", better: "lower"},
	{name: "media.server.decode_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "media.server.select_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "media.server.enhance_wait_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "media.server.package_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "media.server.unaccounted_ms_per_chunk", unit: "ms", better: "lower"},
	{name: "media.server.admit_to_store_p99_ms", unit: "ms", better: "lower"},
	{name: "media.server.chunks_degraded", unit: "count", better: "lower"},
	{name: "media.server.chunks_shed", unit: "count", better: "lower"},
	{name: "media.server.chunks_expired", unit: "count", better: "lower"},
	{name: "media.server.lazy_builds", unit: "count", better: "lower"},
	{name: "media.server.fetches_served", unit: "count", better: "higher"},
	{name: "media.server.scaling_pN_over_p1", unit: "ratio", better: "higher"},
	{name: "media.pool.dispatches_per_chunk", unit: "count", better: "lower"},
	{name: "media.pool.batch_size_mean", unit: "count", better: "higher"},
	{name: "media.pool.dispatch_p50_ms", unit: "ms", better: "lower"},
	{name: "media.pool.dispatch_p99_ms", unit: "ms", better: "lower"},
	{name: "media.pool.rpc_overhead_p50_ms", unit: "ms", better: "lower"},
	{name: "media.pool.retries", unit: "count", better: "lower"},
	{name: "media.pool.failovers", unit: "count", better: "lower"},
	{name: "media.pool.deadline_expired", unit: "count", better: "lower"},
	{name: "media.enhancersvc.jobs_shed", unit: "count", better: "lower"},
	{name: "media.enhancersvc.jobs_expired", unit: "count", better: "lower"},
	{name: "device.busy_share", unit: "ratio", better: "lower"},
	{name: "device.wait_p50_ms", unit: "ms", better: "lower"},
	{name: "device.wait_p99_ms", unit: "ms", better: "lower"},
	{name: "device.anchors", unit: "count", better: "lower"},
	{name: "media.store.append_us", unit: "us", better: "lower"},
	{name: "media.store.get_us", unit: "us", better: "lower"},
	{name: "media.store.evicted", unit: "count", better: "lower"},
	{name: "edge.hit_rate", unit: "ratio", better: "higher"},
	{name: "edge.coalesced_share", unit: "ratio", better: "higher"},
	{name: "edge.admission_rejects", unit: "count", better: "lower"},
	{name: "edge.evictions", unit: "count", better: "lower"},
	{name: "edge.hit_p50_ms", unit: "ms", better: "lower"},
	{name: "edge.miss_p50_ms", unit: "ms", better: "lower"},
	{name: "edge.miss_p99_ms", unit: "ms", better: "lower"},
	{name: "edge.upstream_fetch_p50_ms", unit: "ms", better: "lower"},
	{name: "edge.upstream_bytes_per_miss", unit: "B", better: "lower"},
	{name: "edge.miss_self_p50_ms", unit: "ms", better: "lower"},
	{name: "edge.live_fetch_p90_ms", unit: "ms", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.gc_pause_p99_ms", unit: "ms", better: "lower"},
	{name: "runtime.goroutines_peak", unit: "count", better: "lower"},
	{name: "nsbench.late_p99_ms", unit: "ms", better: "lower"},
	{name: "nsbench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "nsbench.layer_coverage", unit: "ratio", better: "higher"},
	// The primary op's tail, on every workload (see endToEnd).
	{name: "op_p90_ms", unit: "ms", better: "lower"},
	// The per-role views of the issue's metric table: each is filled on
	// the workloads of its row and reads 0 elsewhere.
	{name: "ingest_cps", unit: "chunks/s", better: "higher"},
	{name: "ingest_p50_ms", unit: "ms", better: "lower"},
	{name: "ingest_p90_ms", unit: "ms", better: "lower"},
	{name: "fetch_cps", unit: "chunks/s", better: "higher"},
	{name: "fetch_p50_ms", unit: "ms", better: "lower"},
	{name: "fetch_p90_ms", unit: "ms", better: "lower"},
	{name: "glass_p50_ms", unit: "ms", better: "lower"},
	{name: "glass_p90_ms", unit: "ms", better: "lower"},
	{name: "gpu_ms_per_op", unit: "ms", better: "lower"},
}

// minBeyond is the number of samples that must lie beyond a percentile
// for it to be reported as supported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of an
// ascending sample, and whether at least minBeyond samples lie beyond
// it. An empty sample yields 0, false.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounts is the pair of allocation counters of the issue:
// MemStats.Mallocs and MemStats.TotalAlloc.
func heapCounts() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// runtimeSnap reads the runtime/metrics the runtime layer reports.
type runtimeSnap struct {
	gcCPU  float64
	pauses *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		r.pauses = s[1].Value.Float64Histogram()
	}
	return r
}

// pauseP99 is the p99 of the GC pauses that happened between two
// snapshots, as the upper edge of the histogram bucket holding it.
func pauseP99(before, after runtimeSnap) time.Duration {
	if before.pauses == nil || after.pauses == nil {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.pauses.Counts))
	for i := range delta {
		delta[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			edge := after.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.pauses.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}
