package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/edge"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/metrics"
)

// config is one workload run.
type config struct {
	workload  string
	seed      int64
	window    time.Duration // measured window
	warmup    time.Duration
	setupReps int // how many times set-up runs; setup_s is their median
	trace     bool
	traceOut  string
}

// warmupFor scales the issue's 3 s warm-up (for a 30 s window) to the
// window in use.
func warmupFor(window time.Duration) time.Duration {
	return window / 10
}

// maxLate is the generator lateness (p99) above which an open-loop
// attempt is run again.
const maxLate = 20 * time.Millisecond

// attempt is the generator's own record of one pass over a workload.
type attempt struct {
	LateP99Ms float64 `json:"late_p99_ms"`
	Ops       int64   `json:"ops"`
	Failed    int64   `json:"failed"`
	Kept      bool    `json:"kept"`
}

// result is everything one workload run reports.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Attempts   []attempt         `json:"attempts,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`

	counters media.ServerCounters
	rows     map[string]*layerRow
}

// snapshot is the public state of the process and the topology at one
// instant; metrics are differences of two.
type snapshot struct {
	cpu          time.Duration
	mallocs      uint64
	allocBytes   uint64
	rt           runtimeSnap
	srv          media.ServerCounters
	stages       media.StageStats
	pool         media.PoolCounters
	edge         edge.Counters
	evicted      uint64
	anchors      int64
	svcShed      uint64
	svcExpired   uint64
	dispatches   int64
	dispatchJobs int64
	upFetches    int64
	upBytes      int64
}

func (b *bench) snapshot() snapshot {
	t := b.topo
	s := snapshot{cpu: cpuTime(), rt: readRuntime(), anchors: t.anchorsRun()}
	s.mallocs, s.allocBytes = heapCounts()
	s.srv, s.stages, s.pool = t.origin.Counters(), t.origin.StageStats(), t.pool.Counters()
	s.evicted = t.origin.Store().TotalEvicted()
	if t.edge != nil {
		s.edge = t.edge.Counters()
	}
	for _, e := range t.enhSrvs {
		c := e.Counters()
		s.svcShed += c.JobsShed
		s.svcExpired += c.JobsExpired
	}
	if t.tpool != nil {
		s.dispatches, s.dispatchJobs = t.tpool.dispatches.Load(), t.tpool.jobs.Load()
	}
	s.upFetches, s.upBytes = t.upstream.fetches.Load(), t.upstream.bytes.Load()
	return s
}

// Tracing states of the ratio tail (traced ingest_cpu only).
const (
	tailTraced   = iota // tracer on, default GOMAXPROCS
	tailUntraced        // tracer off, default GOMAXPROCS
	tailOneProc         // tracer off, GOMAXPROCS=1
	tailStates
)

// tailOrder is the state of each slice of the ratio tail: traced and
// untraced alternate, so drift hits both alike, and the single-core
// slices come last in one block, so their backlog disturbs neither.
var tailOrder = [...]int{
	tailTraced, tailUntraced, tailTraced, tailUntraced, tailTraced, tailUntraced, tailTraced, tailUntraced,
	tailOneProc, tailOneProc, tailOneProc, tailOneProc,
}

const tailSlices = len(tailOrder)

// windowSlices is the number of equal slices the sampler cuts the
// window into (1.2 s each at the driver's 24 s).
const windowSlices = 20

// tick is the sampler's reading at a slice boundary.
type tick struct {
	at  time.Duration
	cpu time.Duration
}

// pass is one warm-up + window over a set-up workload.
type pass struct {
	w0, w1     time.Duration // the measured window, as recorder offsets
	before     snapshot
	after      snapshot
	ticks      []tick
	goroutines int
	recs       []opRec
	late       []time.Duration
	// tailMarks are the ratio tail's slice boundaries and tail, per
	// tracing state, the ops/s of each of its slices.
	tailMarks []time.Duration
	tail      [tailStates][]float64
}

// measure drives w for warm-up + window and samples the process at the
// window's edges and at every slice boundary. In a traced ingest_cpu run
// the last 40% of the time is the ratio tail: the window ends early and
// the tail cycles the three tracing states slice by slice.
func (b *bench) measure(w workload) (*pass, error) {
	runtime.GC()
	b.rec.reset()
	b.rec.epoch = time.Now()
	b.late = nil
	p := &pass{w0: b.cfg.warmup, w1: b.cfg.warmup + b.cfg.window}
	end := p.w1
	ratios := b.tr != nil && w.name() == "ingest_cpu"
	if ratios {
		p.w1 = p.w0 + b.cfg.window*6/10
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		defer close(stop)
		b.rec.sleepUntil(p.w0)
		if b.tr != nil {
			b.tr.on.Store(true)
		}
		p.before = b.snapshot()
		for i := 0; i <= windowSlices; i++ {
			b.rec.sleepUntil(p.w0 + (p.w1-p.w0)*time.Duration(i)/windowSlices)
			p.ticks = append(p.ticks, tick{b.rec.now(), cpuTime()})
			if n := runtime.NumGoroutine(); n > p.goroutines {
				p.goroutines = n
			}
		}
		p.after = b.snapshot()
		if !ratios {
			return
		}
		procs := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(procs)
		slice := (end - p.w1) / time.Duration(tailSlices)
		var marks [tailSlices + 1]time.Duration
		for i := 0; i < tailSlices; i++ {
			state := tailOrder[i]
			b.tr.on.Store(state == tailTraced)
			if state == tailOneProc {
				runtime.GOMAXPROCS(1)
			} else {
				runtime.GOMAXPROCS(procs)
			}
			marks[i] = b.rec.now()
			b.rec.sleepUntil(p.w1 + time.Duration(i+1)*slice)
		}
		marks[tailSlices] = b.rec.now()
		b.tr.on.Store(false)
		p.tailMarks = marks[:]
	}()
	err := w.drive(b, stop)
	<-sampled
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	if err != nil {
		return nil, err
	}
	p.recs, p.late = b.rec.all(), b.late
	if ratios {
		for i := 0; i < tailSlices; i++ {
			lo, hi := p.tailMarks[i], p.tailMarks[i+1]
			n := 0
			for _, r := range p.recs {
				if r.done > lo && r.done <= hi {
					n++
				}
			}
			p.tail[tailOrder[i]] = append(p.tail[tailOrder[i]], float64(n)/(hi-lo).Seconds())
		}
	}
	return p, nil
}

// runWorkload is one full run: set-up (repeated for a steady setup_s),
// warm-up and window (repeated once if the generator ran late), the
// verification pass, and — traced — the standalone layer timings.
func runWorkload(cfg config) (res *result, err error) {
	res = &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		EndToEnd:   map[string]metric{},
	}
	b := &bench{cfg: cfg}
	var w workload
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if w != nil {
			w.close()
			b.topo.close()
		}
		if w, err = newWorkload(cfg.workload); err != nil {
			return nil, err
		}
		b.rec = &recorder{epoch: time.Now()}
		b.topo, b.tr = nil, nil
		if cfg.trace {
			b.tr = newTracer()
		}
		start := time.Now()
		err = w.setup(b)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			w.close()
			if b.topo != nil {
				b.topo.close()
			}
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
	}
	defer func() {
		w.close()
		b.topo.close()
	}()
	res.Why = w.why()
	res.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}

	var p *pass
	for try := 0; try < 2; try++ {
		if p, err = b.measure(w); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		a := attempt{LateP99Ms: lateP99(p.late), Kept: true}
		for _, r := range p.recs {
			if p.counts(w, r) {
				a.Ops++
				if r.failed {
					a.Failed++
				}
			}
		}
		res.Attempts = append(res.Attempts, a)
		if !w.openLoop() || a.LateP99Ms <= ms(maxLate) || try == 1 {
			break
		}
		res.Attempts[0].Kept = false
		fmt.Fprintf(logw, "nsbench: %s: generator p99 lateness %.1f ms > %.0f ms, running the window again\n",
			cfg.workload, a.LateP99Ms, ms(maxLate))
		if cfg.trace {
			b.tr.mu.Lock()
			b.tr.spans = b.tr.spans[:0]
			b.tr.mu.Unlock()
		}
	}

	failed, samples, err := w.verify(b)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", cfg.workload, err)
	}
	res.counters = b.topo.origin.Counters()
	// A degraded chunk was acked, so only the origin's counter shows it.
	failed += int64(p.after.srv.ChunksDegraded - p.before.srv.ChunksDegraded)
	if !ledgerClosed(res.counters) {
		fmt.Fprintf(logw, "nsbench: %s: anchor ledger open: %+v\n", cfg.workload, res.counters)
		failed++
	}
	gain, err := psnrGain(samples)
	if err != nil {
		return nil, fmt.Errorf("%s: psnr: %w", cfg.workload, err)
	}
	last := res.Attempts[len(res.Attempts)-1]
	res.Attempted = last.Ops
	res.Failed = last.Failed + failed
	if res.Attempted < res.Failed {
		res.Attempted = res.Failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	views := b.fold(w, p, res)
	res.EndToEnd["psnr_gain_db"] = metric{Value: gain, Unit: "dB", N: min(len(samples), psnrSamples)}
	enhanced := res.counters.ChunksProcessed - res.counters.ChunksDeferred + res.counters.LazyBuilds
	res.EndToEnd["gpu_anchors_per_chunk"] = metric{
		Value: float64(b.topo.anchorsRun()) / float64(max(enhanced, 1)), Unit: "count", N: int(enhanced),
	}
	if cfg.trace {
		res.rows = b.tr.layerTable(b.rec.epoch.Add(p.w0), b.rec.epoch.Add(p.w1))
		res.PerLayer = b.perLayer(w, p, res, views)
		if err := standalone(b.videos, res.PerLayer); err != nil {
			return nil, fmt.Errorf("%s: standalone layers: %w", cfg.workload, err)
		}
		coverage(w, res)
		if err := b.tr.write(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("%s: trace: %w", cfg.workload, err)
		}
		res.TraceFile = cfg.traceOut
	}
	return res, nil
}

// counts says whether an op record belongs to the pass's window: an
// open-loop op by when it was due, a closed-loop op by when it finished.
func (p *pass) counts(w workload, r opRec) bool {
	at := r.done
	if w.openLoop() {
		at = r.due
	}
	return at >= p.w0 && at < p.w1
}

func lateP99(late []time.Duration) float64 {
	if len(late) == 0 {
		return 0
	}
	xs := make([]float64, len(late))
	for i, l := range late {
		xs[i] = ms(l)
	}
	sort.Float64s(xs)
	v, _ := percentile(xs, 0.99)
	return v
}

// latencies is an ascending sample of op latencies in ms.
type latencies []float64

func (l latencies) metric(p float64) metric {
	v, ok := percentile(l, p)
	if !ok && len(l) > 0 {
		fmt.Fprintf(logw, "nsbench: p%.0f over %d samples has fewer than %d beyond it\n", p*100, len(l), minBeyond)
	}
	return metric{Value: v, Unit: "ms", N: len(l)}
}

// fold turns a pass into the end-to-end metrics and returns the per-role
// views (the issue's ingest_*/fetch_*/glass_* names), which the traced
// run prints among the per-layer metrics.
func (b *bench) fold(w workload, p *pass, res *result) map[string]metric {
	var primary, ingest, fetch, glass latencies
	var ingests, fetches int
	for _, r := range p.recs {
		if !p.counts(w, r) || r.failed {
			continue
		}
		if l, ok := w.primary(r); ok {
			primary = append(primary, ms(l))
		}
		switch r.kind {
		case opIngest:
			ingest = append(ingest, ms(r.done-r.due))
			ingests++
		case opFollower:
			glass = append(glass, ms(r.done-r.glassDue))
			fallthrough
		case opFetch:
			fetch = append(fetch, ms(r.done-r.due))
			fetches++
		}
	}
	for _, l := range []latencies{primary, ingest, fetch, glass} {
		sort.Float64s(l)
	}

	// Resource metrics are per op finished inside the window, whichever
	// way the loop is closed.
	opsDone := 0
	for _, r := range p.recs {
		if r.done >= p.w0 && r.done < p.w1 && !r.failed {
			opsDone++
		}
	}
	ops := float64(max(opsDone, 1))
	secs := (p.w1 - p.w0).Seconds()
	e := res.EndToEnd
	e["op_cps"] = metric{Value: ops / secs, Unit: "chunks/s", N: opsDone}
	e["op_p50_ms"] = primary.metric(0.50)
	e["cpu_ms_per_op"] = metric{Value: ms(p.after.cpu-p.before.cpu) / ops, Unit: "ms", N: opsDone}
	p.undisturbed(w, e)
	e["allocs_per_op"] = metric{Value: float64(p.after.mallocs-p.before.mallocs) / ops, Unit: "count", N: opsDone}
	e["alloc_kb_per_op"] = metric{Value: float64(p.after.allocBytes-p.before.allocBytes) / 1024 / ops, Unit: "KB", N: opsDone}

	views := map[string]metric{"op_p90_ms": primary.metric(0.90)}
	if len(ingest) > 0 {
		views["ingest_cps"] = metric{Value: float64(ingests) / secs, Unit: "chunks/s", N: ingests}
		views["ingest_p50_ms"] = ingest.metric(0.50)
		views["ingest_p90_ms"] = ingest.metric(0.90)
		views["gpu_ms_per_op"] = metric{Value: float64(p.after.anchors-p.before.anchors) * ms(deviceAnchorCost) / ops, Unit: "ms", N: opsDone}
	}
	if len(fetch) > 0 {
		views["fetch_cps"] = metric{Value: float64(fetches) / secs, Unit: "chunks/s", N: fetches}
		views["fetch_p50_ms"] = fetch.metric(0.50)
		views["fetch_p90_ms"] = fetch.metric(0.90)
	}
	if len(glass) > 0 {
		views["glass_p50_ms"] = glass.metric(0.50)
		views["glass_p90_ms"] = glass.metric(0.90)
	}
	return views
}

// undisturbed replaces timing metrics with their better quartile over
// the window's slices: op_p50_ms with the lower quartile of the slices'
// median latencies and, on a closed loop, op_cps with the upper quartile
// of their ops/s and cpu_ms_per_op with the lower quartile of their CPU
// per op. Whatever else the machine is doing only ever slows the system
// down, in stretches of seconds, and a saturating closed loop measures
// capacity; between runs of unchanged code these quartiles spread about
// half as much as the whole-window figures (ingest_cpu: 2.8 % against
// 5.0 % for ops/s, 1.7 % against 4.1 % for the median; ingest_gpu: 1.4 %
// against 2.9 % for the median). An open loop's rate is set by its
// schedule, and its slices hold too few ops for a CPU-per-op figure
// (there the quartile spread more, not less), so those two keep the
// whole window.
func (p *pass) undisturbed(w workload, e map[string]metric) {
	n := len(p.ticks) - 1
	count := make([]int, n)
	lats := make([]latencies, n)
	for _, r := range p.recs {
		if r.failed || r.done < p.ticks[0].at {
			continue
		}
		i := sort.Search(n, func(i int) bool { return r.done < p.ticks[i+1].at })
		if i == n {
			continue
		}
		count[i]++
		if l, ok := w.primary(r); ok {
			lats[i] = append(lats[i], ms(l))
		}
	}
	var rates, p50s, cpus []float64
	for i := 0; i < n; i++ {
		if count[i] == 0 {
			continue
		}
		lo, hi := p.ticks[i], p.ticks[i+1]
		rates = append(rates, float64(count[i])/(hi.at-lo.at).Seconds())
		cpus = append(cpus, ms(hi.cpu-lo.cpu)/float64(count[i]))
		sort.Float64s(lats[i])
		if v, _ := percentile(lats[i], 0.50); len(lats[i]) > 0 {
			p50s = append(p50s, v)
		}
	}
	quartile := func(name string, xs []float64, q float64) {
		if len(xs) == 0 {
			return
		}
		sort.Float64s(xs)
		m := e[name]
		m.Value, _ = percentile(xs, q)
		m.N = len(xs)
		e[name] = m
	}
	quartile("op_p50_ms", p50s, 0.25)
	if !w.openLoop() {
		quartile("op_cps", rates, 0.75)
		quartile("cpu_ms_per_op", cpus, 0.25)
	}
}

// psnrSamples is how many verified chunks psnr_gain_db is measured on.
const psnrSamples = 8

// psnrGain is the mean PSNR gain, over psnrSamples evenly spaced ones of
// the verified chunks, of the delivered container over the same container with its
// anchors stripped, both decoded with hybrid.Decode against the HR
// source.
func psnrGain(samples []refSample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("no verified chunk to measure")
	}
	if n := len(samples); n > psnrSamples {
		spaced := make([]refSample, psnrSamples)
		for i := range spaced {
			spaced[i] = samples[i*n/psnrSamples]
		}
		samples = spaced
	}
	var gains []float64
	for _, s := range samples {
		var c hybrid.Container
		if err := c.UnmarshalBinary(s.video.refs[s.chunk]); err != nil {
			return 0, err
		}
		src := s.video.hr[s.chunk*gopFrames : (s.chunk+1)*gopFrames]
		enhanced, err := decodePSNR(&c, src)
		if err != nil {
			return 0, err
		}
		for i := range c.Frames {
			c.Frames[i].Anchor = nil
		}
		floor, err := decodePSNR(&c, src)
		if err != nil {
			return 0, err
		}
		gains = append(gains, enhanced-floor)
	}
	return mean(gains), nil
}

func decodePSNR(c *hybrid.Container, src []*frame.Frame) (float64, error) {
	frames, err := hybrid.Decode(c)
	if err != nil {
		return 0, err
	}
	return metrics.MeanPSNR(src, frames)
}
