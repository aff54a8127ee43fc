package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/media"
)

// workload is one traffic mix and the topology it runs against. set-up
// builds content, references, topology and connections and preloads
// whatever the mix needs; drive generates load from the recorder's epoch
// — an open loop for the run's warm-up and window, a closed loop until
// stop closes — and returns once every op it issued has finished; verify
// is the untimed correctness pass.
type workload interface {
	name() string
	why() string
	openLoop() bool
	setup(b *bench) error
	drive(b *bench, stop <-chan struct{}) error
	verify(b *bench) (failed int64, samples []refSample, err error)
	// primary picks the op whose latency the workload reports as
	// op_p50_ms/op_p90_ms and returns that latency.
	primary(r opRec) (time.Duration, bool)
	close()
}

var workloadNames = []string{"ingest_cpu", "ingest_gpu", "delivery_zipf", "live_mixed"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest_cpu":
		return &ingestCPU{}, nil
	case "ingest_gpu":
		return &ingestGPU{}, nil
	case "delivery_zipf":
		return &deliveryZipf{}, nil
	case "live_mixed":
		return &liveMixed{}, nil
	}
	return nil, fmt.Errorf("nsbench: unknown workload %q (have %v)", name, workloadNames)
}

// bench is the state of one workload run.
type bench struct {
	cfg    config
	rec    *recorder
	tr     *tracer
	topo   *topology
	videos []*video

	lateMu sync.Mutex
	late   []time.Duration // how late each open-loop op was issued
}

func (b *bench) addLate(l []time.Duration) {
	b.lateMu.Lock()
	b.late = append(b.late, l...)
	b.lateMu.Unlock()
}

// refSample names a chunk whose delivered bytes were checked against the
// reference; psnr_gain_db is measured on a few of them.
type refSample struct {
	video *video
	chunk int
}

// ingestSide is what the two ingest workloads share: streams spread
// over streamer conns against an eager origin, one video per stream.
type ingestSide struct {
	conns []*ingestConn
}

func (s *ingestSide) setup(b *bench, spec topoSpec, conns, streamsPer int, budget time.Duration) error {
	var err error
	if b.videos, err = makeVideos(conns*streamsPer, 4); err != nil {
		return err
	}
	if err = buildRefs(b.videos); err != nil {
		return err
	}
	videoOf := func(id uint32) *video { return b.videos[id-1] }
	if b.topo, err = startTopology(spec, videoOf, b.tr); err != nil {
		return err
	}
	for c := 0; c < conns; c++ {
		ids := make([]uint32, streamsPer)
		for i := range ids {
			ids[i] = uint32(c*streamsPer + i + 1)
		}
		conn, err := dialIngest(b.topo.origin.Addr(), ids, videoOf, budget, b.rec)
		if err != nil {
			return err
		}
		conn.tr = b.tr
		s.conns = append(s.conns, conn)
	}
	return nil
}

func (s *ingestSide) close() {
	for _, c := range s.conns {
		c.close()
	}
	s.conns = nil
}

// each runs fn for every conn concurrently and returns the first error.
func (s *ingestSide) each(fn func(i int, c *ingestConn) error) error {
	return concurrently(len(s.conns), func(i int) error { return fn(i, s.conns[i]) })
}

// concurrently runs fn(0..n-1) on n goroutines, waits for all of them
// and returns the first error.
func concurrently(n int, fn func(i int) error) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- fn(i) }(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// verifyStore checks every container the origin still retains against
// the reference for its place in the stream's content cycle, and returns
// each verified chunk of the corpus once, as PSNR samples.
func verifyStore(b *bench, conns []*ingestConn) (failed int64, samples []refSample, err error) {
	store := b.topo.origin.Store()
	for _, c := range conns {
		failed += c.failed()
		for _, s := range c.streams {
			n := store.ChunkCount(s.id)
			for seq := store.OldestRetained(s.id); seq < n; seq++ {
				data, err := store.Chunk(s.id, seq)
				if err != nil {
					return 0, nil, err
				}
				if sha256.Sum256(data) != s.video.sums[seq%s.video.chunks()] {
					failed++
				}
			}
			for chunk := 0; chunk < s.video.chunks() && chunk < n; chunk++ {
				samples = append(samples, refSample{s.video, chunk})
			}
		}
	}
	return failed, samples, nil
}

func ingestLatency(r opRec) (time.Duration, bool) {
	return r.done - r.due, r.kind == opIngest
}

// ingestCPU: closed loop, saturating; the CPU kernels and the origin's
// stage pipeline do all the work.
type ingestCPU struct{ ingestSide }

func (*ingestCPU) name() string   { return "ingest_cpu" }
func (*ingestCPU) openLoop() bool { return false }
func (*ingestCPU) why() string {
	return "closed loop, 2 streamer conns x 2 streams, 3 chunks outstanding each, in-process replicas: the CPU kernels and the origin pipeline saturate both cores; RPC, device queueing and edge do nothing"
}
func (w *ingestCPU) setup(b *bench) error {
	return w.ingestSide.setup(b, topoSpec{}, 2, 2, 0)
}
func (w *ingestCPU) drive(b *bench, stop <-chan struct{}) error {
	return w.each(func(_ int, c *ingestConn) error { return c.runClosed(3, stop) })
}
func (w *ingestCPU) verify(b *bench) (int64, []refSample, error) { return verifyStore(b, w.conns) }
func (*ingestCPU) primary(r opRec) (time.Duration, bool)         { return ingestLatency(r) }

// ingestGPU: open loop at the live cadence against sleeping, exclusive
// devices behind real RPC; latency is dispatch, queueing and device wait.
type ingestGPU struct{ ingestSide }

const (
	gpuStreamsPerConn = 3
	gpuStreamRate     = 2.5 // chunks/s per stream: a 12-frame GOP at 30 fps
)

func (*ingestGPU) name() string   { return "ingest_gpu" }
func (*ingestGPU) openLoop() bool { return true }
func (*ingestGPU) why() string {
	return "open loop, 6 streams at the live 2.5 chunks/s (60% of device capacity), TCP replicas whose device sleeps 40 ms per anchor: latency is batching, RPC and device wait; a kernel speed-up must not move it"
}
func (w *ingestGPU) setup(b *bench) error {
	return w.ingestSide.setup(b, topoSpec{remote: true, sleeps: true}, 2, gpuStreamsPerConn, time.Second)
}
func (w *ingestGPU) drive(b *bench, _ <-chan struct{}) error {
	return w.each(func(i int, c *ingestConn) error {
		var late []time.Duration
		err := c.runOpen(mergeArrivals(b.cfg.seed, i*gpuStreamsPerConn, gpuStreamsPerConn, gpuStreamRate, b.cfg.window, b.cfg.warmup), &late)
		b.addLate(late)
		return err
	})
}
func (w *ingestGPU) verify(b *bench) (int64, []refSample, error) { return verifyStore(b, w.conns) }
func (*ingestGPU) primary(r opRec) (time.Duration, bool)         { return ingestLatency(r) }

// deliveryZipf: closed loop of viewers over a prebuilt catalog; the edge
// and, on misses, the origin fetch path do all the work.
type deliveryZipf struct {
	keys    []fetchKey // the catalog in popularity order: keys[rank]
	viewers []*viewer
}

const (
	zipfStreams     = 32
	zipfChunks      = 8
	zipfVideos      = 4
	zipfViewers     = 2
	zipfOutstanding = 4
)

func (*deliveryZipf) name() string   { return "delivery_zipf" }
func (*deliveryZipf) openLoop() bool { return false }
func (*deliveryZipf) why() string {
	return "closed loop, 2 viewer conns x 4 fetches outstanding, Zipf(1.0) keys over a 256-chunk catalog built in set-up, edge cache 25% of it: edge, wire and the origin fetch path work; no codec work at all"
}

func (w *deliveryZipf) setup(b *bench) error {
	var err error
	if b.videos, err = makeVideos(zipfVideos, zipfChunks); err != nil {
		return err
	}
	if err = buildRefs(b.videos); err != nil {
		return err
	}
	videoOf := func(id uint32) *video { return b.videos[int(id-1)%zipfVideos] }
	var catalogBytes int64
	for s := 1; s <= zipfStreams; s++ {
		for c := 0; c < zipfChunks; c++ {
			v := videoOf(uint32(s))
			w.keys = append(w.keys, fetchKey{stream: uint32(s), seq: uint32(c), video: v, chunk: c})
			catalogBytes += int64(len(v.refs[c]))
		}
	}
	// Which chunks are popular belongs to the corpus, like their bytes;
	// the seed drives the order they are asked for in.
	rand.New(rand.NewSource(corpusSeed)).Shuffle(len(w.keys), func(i, j int) { w.keys[i], w.keys[j] = w.keys[j], w.keys[i] })
	if b.topo, err = startTopology(topoSpec{lazy: true, edgeCache: catalogBytes / 4}, videoOf, b.tr); err != nil {
		return err
	}
	// Ingest the catalog (the lazy origin stores packets only) ...
	var in ingestSide
	defer in.close()
	for c := 0; c < 2; c++ {
		ids := make([]uint32, zipfStreams/2)
		for i := range ids {
			ids[i] = uint32(c*len(ids) + i + 1)
		}
		conn, err := dialIngest(b.topo.origin.Addr(), ids, videoOf, 0, nil)
		if err != nil {
			return err
		}
		in.conns = append(in.conns, conn)
	}
	err = in.each(func(_ int, c *ingestConn) error {
		for i := range c.streams {
			for k := 0; k < zipfChunks; k++ {
				if err := c.send(i, 0); err != nil {
					return err
				}
			}
		}
		if err := c.drain(); err != nil {
			return err
		}
		if n := c.failed(); n != 0 {
			return fmt.Errorf("nsbench: origin refused %d catalog chunks", n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// ... and sweep it once through the edge, so every lazy build is paid
	// here and the window sees none.
	for i := 0; i < zipfViewers; i++ {
		v, err := dialViewer(b.topo.edge.Addr(), b.rec, b.tr)
		if err != nil {
			return err
		}
		w.viewers = append(w.viewers, v)
	}
	return w.sweep()
}

// sweep fetches every key once, hashing each delivery.
func (w *deliveryZipf) sweep() error {
	return concurrently(len(w.viewers), func(i int) error {
		for k := i; k < len(w.keys); k += len(w.viewers) {
			if _, err := w.viewers[i].fetch(w.keys[k], true); err != nil {
				return fmt.Errorf("stream %d chunk %d: %w", w.keys[k].stream, w.keys[k].seq, err)
			}
		}
		return nil
	})
}

// zipfKeys is worker w's key sequence: ranks drawn Zipf(1.0), and for
// each whether the delivery's hash is checked.
type zipfKeys struct {
	rng *rand.Rand
	z   *zipf
}

func newZipfKeys(seed int64, worker, n int) *zipfKeys {
	return &zipfKeys{rng: rand.New(rand.NewSource(seed*104729 + int64(worker))), z: newZipf(n, 1.0)}
}

func (k *zipfKeys) next() (rank int, hash bool) {
	return k.z.rank(k.rng.Float64()), k.rng.Intn(hashSampleRate) == 0
}

func (w *deliveryZipf) drive(b *bench, stop <-chan struct{}) error {
	var wg sync.WaitGroup
	for vi, v := range w.viewers {
		for o := 0; o < zipfOutstanding; o++ {
			wg.Add(1)
			go func(v *viewer, worker int) {
				defer wg.Done()
				keys := newZipfKeys(b.cfg.seed, worker, len(w.keys))
				log := b.rec.newLog()
				for {
					select {
					case <-stop:
						return
					default:
					}
					rank, hash := keys.next()
					v.timedFetch(log, opFetch, w.keys[rank], hash, b.rec.now(), 0)
				}
			}(v, vi*zipfOutstanding+o)
		}
	}
	wg.Wait()
	return nil
}

func (w *deliveryZipf) verify(b *bench) (int64, []refSample, error) {
	var failed int64
	if err := w.sweep(); err != nil {
		fmt.Fprintf(logw, "nsbench: delivery_zipf: post-window sweep: %v\n", err)
		failed++
	}
	var samples []refSample
	for _, v := range b.videos {
		for chunk := 0; chunk < v.chunks(); chunk++ {
			samples = append(samples, refSample{v, chunk})
		}
	}
	return failed, samples, nil
}

func (*deliveryZipf) primary(r opRec) (time.Duration, bool) {
	return r.done - r.due, r.kind == opFetch
}

func (w *deliveryZipf) close() {
	for _, v := range w.viewers {
		_ = v.client.Close()
	}
	w.viewers = nil
}

// liveMixed: paced ingest and paced delivery share the store, the edge
// and the cores.
type liveMixed struct {
	ingestSide
	viewer *viewer
	newest [liveStreams]atomic.Int64 // newest acked chunk seq per stream
}

const (
	liveStreams    = 4
	liveStreamRate = 10.0   // chunks/s per stream, 40 in all
	liveJoinerRate = 4000.0 // late-joiner fetches/s
	livePreload    = 8      // chunks per stream ingested in set-up
	liveJoinerMean = 6.0    // mean chunks a late joiner is behind the newest
	liveJoinerMax  = 48     // ... capped inside the store's retention
	liveFollowers  = 4
	liveJoiners    = 16
	liveEdgeCache  = 2 << 20
)

func (*liveMixed) name() string   { return "live_mixed" }
func (*liveMixed) openLoop() bool { return true }
func (*liveMixed) why() string {
	return "open loop both sides: 4 streams at 40 chunks/s, one viewer conn following every ack plus 4000 late-joiner fetches/s: appends beside reads, admissions beside hits, ingest bursts beside delivery writes"
}

func (w *liveMixed) setup(b *bench) error {
	if err := w.ingestSide.setup(b, topoSpec{edgeCache: liveEdgeCache}, 1, liveStreams, 0); err != nil {
		return err
	}
	c := w.conns[0]
	for k := 0; k < livePreload; k++ {
		for i := range c.streams {
			if err := c.sendWait(i); err != nil {
				return err
			}
		}
	}
	for i := range w.newest {
		w.newest[i].Store(livePreload - 1)
	}
	var err error
	w.viewer, err = dialViewer(b.topo.edge.Addr(), b.rec, b.tr)
	return err
}

type followJob struct {
	stream   int
	seq      uint32
	glassDue time.Duration
}

type joinJob struct {
	due    time.Duration
	stream int
	behind int64
	hash   bool
}

func (w *liveMixed) key(stream int, seq uint32) fetchKey {
	s := w.conns[0].streams[stream]
	return fetchKey{stream: s.id, seq: seq, video: s.video, chunk: int(seq) % s.video.chunks()}
}

func (w *liveMixed) drive(b *bench, _ <-chan struct{}) error {
	c := w.conns[0]
	// Followers: fetch every chunk the moment its ack arrives.
	follow := make(chan followJob, 1<<12) // deeper than the chunks a window can ack while followers stall
	c.onAck = func(op ingestOp, _ uint32, seq uint32) {
		w.newest[op.stream].Store(int64(seq))
		follow <- followJob{op.stream, seq, op.due}
	}
	var workers sync.WaitGroup
	for i := 0; i < liveFollowers; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			log := b.rec.newLog()
			rng := rand.New(rand.NewSource(b.cfg.seed*31 + int64(i)))
			for j := range follow {
				w.viewer.timedFetch(log, opFollower, w.key(j.stream, j.seq), rng.Intn(hashSampleRate) == 0, b.rec.now(), j.glassDue)
			}
		}(i)
	}
	// Late joiners: a paced stream of fetches some chunks behind the
	// newest of a stream.
	join := make(chan joinJob, 1<<13) // two seconds of schedule: a stall shows as latency, not as a blocked generator
	for i := 0; i < liveJoiners; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			log := b.rec.newLog()
			for j := range join {
				newest := w.newest[j.stream].Load()
				seq := newest - j.behind
				if seq < 0 {
					seq = 0
				}
				w.viewer.timedFetch(log, opFetch, w.key(j.stream, uint32(seq)), j.hash, j.due, 0)
			}
		}()
	}
	errs := make(chan error, 2)
	go func() {
		var late []time.Duration
		err := c.runOpen(mergeArrivals(b.cfg.seed, 0, liveStreams, liveStreamRate, b.cfg.window, b.cfg.warmup), &late)
		b.addLate(late)
		close(follow)
		errs <- err
	}()
	go func() {
		rng := rand.New(rand.NewSource(b.cfg.seed*131 + 7))
		var late []time.Duration
		cycle := b.cfg.window
		for _, at := range unroll(arrivals(1000, liveJoinerRate, cycle), cycle, phaseOf(b.cfg.seed, cycle), b.cfg.warmup) {
			behind := 1 + int64(rng.ExpFloat64()*liveJoinerMean)
			if behind > liveJoinerMax {
				behind = liveJoinerMax
			}
			j := joinJob{due: at, stream: rng.Intn(liveStreams), behind: behind, hash: rng.Intn(hashSampleRate) == 0}
			late = append(late, b.rec.sleepUntil(at))
			join <- j
		}
		b.addLate(late)
		close(join)
		errs <- nil
	}()
	err := <-errs
	if e := <-errs; err == nil {
		err = e
	}
	workers.Wait()
	c.onAck = nil
	return err
}

func (w *liveMixed) verify(b *bench) (int64, []refSample, error) {
	failed, samples, err := verifyStore(b, w.conns)
	if err != nil {
		return 0, nil, err
	}
	// Deliver the newest chunks of every stream once more, hashing each.
	for i, s := range w.conns[0].streams {
		n := b.topo.origin.Store().ChunkCount(s.id)
		for seq := n - 1; seq >= 0 && seq >= n-16; seq-- {
			if _, err := w.viewer.fetch(w.key(i, uint32(seq)), true); err != nil {
				fmt.Fprintf(logw, "nsbench: live_mixed: stream %d chunk %d: %v\n", s.id, seq, err)
				failed++
			}
		}
	}
	return failed, samples, nil
}

func (*liveMixed) primary(r opRec) (time.Duration, bool) {
	return r.done - r.glassDue, r.kind == opFollower
}

func (w *liveMixed) close() {
	if w.viewer != nil {
		_ = w.viewer.client.Close()
		w.viewer = nil
	}
	w.ingestSide.close()
}

// ledgerClosed reports whether every anchor the origin selected landed
// in exactly one outcome counter.
func ledgerClosed(c media.ServerCounters) bool {
	return c.AnchorsSelected == c.AnchorsEnhanced+c.AnchorsDropped+c.AnchorsRejected+c.AnchorsExpired
}
