package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/anchor"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/icodec"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer assembles the per-layer metrics that come from the traced
// window: differences of public counters, the span table, and the
// viewer-side hit/miss split. Every declared name is present; a layer
// the workload did not exercise reads 0.
func (b *bench) perLayer(w workload, p *pass, res *result, views map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{Unit: d.unit}
	}
	set := func(name string, v float64, n int) {
		m, ok := out[name]
		if !ok {
			panic("nsbench: undeclared per-layer metric " + name)
		}
		m.Value, m.N = v, n
		out[name] = m
	}
	for name, m := range views {
		set(name, m.Value, m.N)
	}
	be, af := p.before, p.after
	windowMs := ms(p.w1 - p.w0)
	row := func(name string) *layerRow {
		if r := res.rows[name]; r != nil {
			return r
		}
		return &layerRow{}
	}
	pct := func(xs []float64, q float64) float64 { v, _ := percentile(xs, q); return v }

	// media.server: stage accounting is totals, so the window is a delta.
	st0, st1 := be.stages, af.stages
	perChunk := func(ms1, ms0 float64, n1, n0 uint64) float64 { return ratio(ms1-ms0, float64(n1-n0)) }
	decode := perChunk(st1.DecodeMsTotal, st0.DecodeMsTotal, st1.DecodeCount, st0.DecodeCount)
	sel := perChunk(st1.SelectMsTotal, st0.SelectMsTotal, st1.SelectCount, st0.SelectCount)
	wait := perChunk(st1.EnhanceWaitMsTotal, st0.EnhanceWaitMsTotal, st1.EnhanceWaitCount, st0.EnhanceWaitCount)
	pack := perChunk(st1.PackageMsTotal, st0.PackageMsTotal, st1.PackageCount, st0.PackageCount)
	chunks := int(st1.PackageCount - st0.PackageCount)
	set("media.server.decode_ms_per_chunk", decode, chunks)
	set("media.server.select_ms_per_chunk", sel, chunks)
	set("media.server.enhance_wait_ms_per_chunk", wait, chunks)
	set("media.server.package_ms_per_chunk", pack, chunks)
	if root := row("chunk"); root.count > 0 {
		set("media.server.unaccounted_ms_per_chunk", root.totalMs/float64(root.count)-decode-sel-wait-pack, root.count)
	}
	set("media.server.admit_to_store_p99_ms", ms(b.topo.origin.AdmitToStoreP99()), 0)
	set("media.server.chunks_degraded", float64(af.srv.ChunksDegraded-be.srv.ChunksDegraded), 0)
	set("media.server.chunks_shed", float64(af.srv.ChunksShed-be.srv.ChunksShed), 0)
	set("media.server.chunks_expired", float64(af.srv.ChunksExpired-be.srv.ChunksExpired), 0)
	set("media.server.lazy_builds", float64(res.counters.LazyBuilds), 0) // since the topology started: set-up pays them
	set("media.server.fetches_served", float64(af.srv.FetchesServed-be.srv.FetchesServed), 0)
	if one := median(p.tail[tailOneProc]); one > 0 {
		set("media.server.scaling_pN_over_p1", median(p.tail[tailUntraced])/one, len(p.tail[tailOneProc]))
		set("nsbench.trace_overhead_pct", 100*(1-ratio(median(p.tail[tailTraced]), median(p.tail[tailUntraced]))), len(p.tail[tailTraced]))
	}

	// media.pool and device: the wrappers' counts and spans.
	dispatches := float64(af.dispatches - be.dispatches)
	set("media.pool.dispatches_per_chunk", ratio(dispatches, float64(chunks)), chunks)
	set("media.pool.batch_size_mean", ratio(float64(af.dispatchJobs-be.dispatchJobs), dispatches), int(dispatches))
	disp := row("pool.dispatch")
	set("media.pool.dispatch_p50_ms", disp.p50Ms, disp.count)
	set("media.pool.dispatch_p99_ms", disp.p99Ms, disp.count)
	set("media.pool.rpc_overhead_p50_ms", pct(disp.parentSelf, 0.50), len(disp.parentSelf))
	set("media.pool.retries", float64(af.pool.Retries-be.pool.Retries), 0)
	set("media.pool.failovers", float64(af.pool.Failovers-be.pool.Failovers), 0)
	set("media.pool.deadline_expired", float64(af.pool.DeadlineExpired-be.pool.DeadlineExpired), 0)
	set("media.enhancersvc.jobs_shed", float64(af.svcShed-be.svcShed), 0)
	set("media.enhancersvc.jobs_expired", float64(af.svcExpired-be.svcExpired), 0)
	run, held := row("device.run"), row("device.wait")
	set("device.busy_share", ratio(run.totalMs, windowMs*replicaCount), run.count)
	set("device.wait_p50_ms", held.p50Ms, held.count)
	set("device.wait_p99_ms", held.p99Ms, held.count)
	set("device.anchors", float64(af.anchors-be.anchors), 0)
	set("media.store.evicted", float64(af.evicted-be.evicted), 0)

	// edge: counters for the ratios, the viewer's clock for hit and miss.
	e0, e1 := be.edge, af.edge
	hits, co, miss := float64(e1.CacheHits-e0.CacheHits), float64(e1.CoalescedWaits-e0.CoalescedWaits), float64(e1.CacheMisses-e0.CacheMisses)
	set("edge.hit_rate", ratio(hits+co, hits+co+miss), int(hits+co+miss))
	set("edge.coalesced_share", ratio(co, hits+co+miss), int(hits+co+miss))
	set("edge.admission_rejects", float64(e1.AdmissionRejects-e0.AdmissionRejects), 0)
	set("edge.evictions", float64(e1.Evictions-e0.Evictions), 0)
	var hitMs, missMs, allMs []float64
	for _, r := range p.recs {
		if r.kind == opIngest || r.failed || !p.counts(w, r) {
			continue
		}
		l := ms(r.done - r.due)
		allMs = append(allMs, l)
		if r.hit {
			hitMs = append(hitMs, l)
		} else {
			missMs = append(missMs, l)
		}
	}
	sort.Float64s(hitMs)
	sort.Float64s(missMs)
	sort.Float64s(allMs)
	set("edge.hit_p50_ms", pct(hitMs, 0.50), len(hitMs))
	set("edge.miss_p50_ms", pct(missMs, 0.50), len(missMs))
	set("edge.miss_p99_ms", pct(missMs, 0.99), len(missMs))
	up := row("edge.upstream")
	set("edge.upstream_fetch_p50_ms", up.p50Ms, up.count)
	set("edge.upstream_bytes_per_miss", ratio(float64(af.upBytes-be.upBytes), float64(af.upFetches-be.upFetches)), int(af.upFetches-be.upFetches))
	fetch := row("fetch")
	set("edge.miss_self_p50_ms", pct(fetch.parentSelf, 0.50), len(fetch.parentSelf))
	if w.name() == "live_mixed" {
		set("edge.live_fetch_p90_ms", pct(allMs, 0.90), len(allMs))
	}

	set("runtime.gc_cpu_share", ratio(af.rt.gcCPU-be.rt.gcCPU, (af.cpu-be.cpu).Seconds()), 0)
	set("runtime.gc_pause_p99_ms", ms(pauseP99(be.rt, af.rt)), 0)
	set("runtime.goroutines_peak", float64(p.goroutines), 0)
	set("nsbench.late_p99_ms", lateP99(p.late), len(p.late))
	return out
}

// coverage fills nsbench.layer_coverage on ingest_cpu: the standalone
// busy time of the layers a chunk passes through, over the CPU the
// process really spent per chunk. Well below 1 means work no layer
// metric sees; above 1 means the standalone calls overstate the path.
func coverage(w workload, res *result) {
	if w.name() != "ingest_cpu" {
		return
	}
	l := func(name string) float64 { return res.PerLayer[name].Value }
	anchors := l("anchor.selected_per_chunk")
	sum := l("vcodec.decode_ms_per_chunk") + l("anchor.select_us_per_chunk")/1e3 +
		anchors*(l("sr.apply_ms_per_anchor")+l("icodec.encode_ms_per_anchor")) +
		(l("hybrid.marshal_us_per_chunk")+l("wire.chunk_write_us")+l("wire.chunk_read_us")+l("media.store.append_us"))/1e3
	m := res.PerLayer["nsbench.layer_coverage"]
	m.Value = ratio(sum, res.EndToEnd["cpu_ms_per_op"].Value)
	res.PerLayer["nsbench.layer_coverage"] = m
	fmt.Fprintf(logw, "nsbench: layer_coverage %.2f (standalone layers %.2f ms of %.2f ms CPU per chunk; expected 0.8-1.1)\n",
		m.Value, sum, res.EndToEnd["cpu_ms_per_op"].Value)
}

// timeCalls runs fn on one goroutine for about 100 ms (at least three
// calls) and returns the mean time and allocations of a call.
func timeCalls(fn func() error) (perCall time.Duration, allocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < 100*time.Millisecond {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed / time.Duration(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// standalone times each layer's public entry points directly, on the
// workload's own chunks, and fills the metrics that come from those
// calls.
func standalone(videos []*video, out map[string]metric) error {
	v := videos[0]
	set := func(name string, val float64) {
		m, ok := out[name]
		if !ok {
			panic("nsbench: undeclared per-layer metric " + name)
		}
		m.Value = val
		out[name] = m
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	hello, err := streamHello()
	if err != nil {
		return err
	}

	// Chunk sizes differ (the corpus's first chunk is a third of the
	// others), so the per-chunk figures are means over one pass of the
	// video's chunks, the cycle the workloads send.
	n := v.chunks()
	perChunk := func(fn func(c int) error) (time.Duration, float64, error) {
		d, allocs, err := timeCalls(func() error {
			for c := 0; c < n; c++ {
				if err := fn(c); err != nil {
					return err
				}
			}
			return nil
		})
		return d / time.Duration(n), allocs / float64(n), err
	}
	meanLen := func(bufs [][]byte) float64 {
		total := 0
		for _, b := range bufs {
			total += len(b)
		}
		return float64(total) / float64(len(bufs))
	}

	// vcodec: each chunk is a whole GOP, so both codecs' state resets.
	enc, err := vcodec.NewEncoder(hello.Config)
	if err != nil {
		return err
	}
	d, _, err := perChunk(func(c int) error {
		_, err := enc.EncodeChunk(v.lr[c*gopFrames : (c+1)*gopFrames])
		return err
	})
	if err != nil {
		return err
	}
	set("vcodec.encode_ms_per_chunk", ms(d))
	dec, err := vcodec.NewDecoder(lrW, lrH)
	if err != nil {
		return err
	}
	dec.CaptureResidual = false
	var decoded []*vcodec.Decoded
	d, allocs, err := perChunk(func(c int) error {
		decoded = decoded[:0]
		for _, pkt := range v.packets[c] {
			dd, err := dec.Decode(pkt)
			if err != nil {
				return err
			}
			decoded = append(decoded, dd)
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("vcodec.decode_ms_per_chunk", ms(d))
	set("vcodec.decode_allocs_per_chunk", allocs)

	// anchor: the origin's selection, on the decoded side information.
	infos := make([]vcodec.Info, len(decoded))
	for i, dd := range decoded {
		infos[i] = dd.Info
	}
	var selected []anchor.Candidate
	d, _, _ = timeCalls(func() error {
		cands := anchor.ZeroInferenceGains(anchor.MetasFromInfos(infos))
		selected = anchor.SelectTopN(cands, int(anchorFraction*float64(len(infos))+0.5))
		return nil
	})
	set("anchor.select_us_per_chunk", us(d))
	set("anchor.selected_per_chunk", float64(len(selected)))

	// sr and icodec: one selected anchor through the model and the image
	// codec at the origin's quality.
	model, err := sr.NewOracleModel(hello.Model, v.hr)
	if err != nil {
		return err
	}
	pick := decoded[selected[0].Meta.Packet]
	var hr *frame.Frame
	d, _, err = timeCalls(func() error { hr, err = model.Apply(pick.Frame, pick.Info.DisplayIndex); return err })
	if err != nil {
		return err
	}
	set("sr.apply_ms_per_anchor", ms(d))
	qp, err := hybrid.QPForFraction(anchorFraction)
	if err != nil {
		return err
	}
	var image []byte
	d, _, err = timeCalls(func() error { image, _, err = icodec.Encode(hr, icodec.Options{Quality: qp}); return err })
	if err != nil {
		return err
	}
	set("icodec.encode_ms_per_anchor", ms(d))
	set("icodec.anchor_bytes", float64(len(image)))
	d, _, err = timeCalls(func() error { _, err := icodec.Decode(image); return err })
	if err != nil {
		return err
	}
	set("icodec.decode_ms_per_anchor", ms(d))

	// hybrid: the reference containers.
	containers := make([]hybrid.Container, n)
	for c := range containers {
		if err := containers[c].UnmarshalBinary(v.refs[c]); err != nil {
			return err
		}
	}
	d, _, err = perChunk(func(c int) error {
		_, err := containers[c].MarshalAppend(make([]byte, 0, containers[c].MarshalSize()))
		return err
	})
	if err != nil {
		return err
	}
	set("hybrid.marshal_us_per_chunk", us(d))
	set("hybrid.container_bytes", meanLen(v.refs))
	d, _, err = perChunk(func(c int) error { _, err := hybrid.Decode(&containers[c]); return err })
	if err != nil {
		return err
	}
	set("hybrid.decode_ms_per_chunk", ms(d))

	// wire: one frame written and then read back over a loopback pair,
	// so the read never waits for the writer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer a.Close()
	peer, err := ln.Accept()
	if err != nil {
		return err
	}
	defer peer.Close()
	var pool par.SlabPool[byte]
	var wrote, read time.Duration
	calls := 0
	_, _, err = perChunk(func(c int) error {
		t0 := time.Now()
		if err := wire.Write(a, wire.Message{Type: wire.TypeChunk, StreamID: 1, Seq: 1, Payload: v.payloads[c]}); err != nil {
			return err
		}
		t1 := time.Now()
		m, err := wire.ReadPooled(peer, wire.DefaultMaxPayload, &pool)
		if err != nil {
			return err
		}
		read += time.Since(t1)
		wrote += t1.Sub(t0)
		calls++
		pool.Put(m.Payload)
		return nil
	})
	if err != nil {
		return err
	}
	set("wire.chunk_write_us", us(wrote)/float64(calls))
	set("wire.chunk_read_us", us(read)/float64(calls))
	set("wire.chunk_bytes", meanLen(v.payloads))
	// The viewer's side of a delivery: wire.Read plus the copying decode
	// edge.Client does.
	dataMsgs := make([]wire.Message, n)
	for c := range dataMsgs {
		dataMsgs[c] = wire.Message{Type: wire.TypeChunkData, StreamID: 1, Seq: 1, Payload: wire.EncodeChunkData(wire.ChunkData{Data: v.refs[c]})}
	}
	read, calls = 0, 0
	_, allocs, err = perChunk(func(c int) error {
		if err := wire.Write(peer, dataMsgs[c]); err != nil {
			return err
		}
		t1 := time.Now()
		m, err := wire.Read(a, wire.DefaultMaxPayload)
		if err != nil {
			return err
		}
		_, err = wire.DecodeChunkData(m.Payload)
		read += time.Since(t1)
		calls++
		return err
	})
	if err != nil {
		return err
	}
	set("wire.chunkdata_read_us", us(read)/float64(calls))
	set("wire.allocs_per_frame", allocs)

	// media.store: append and get on a store of the benchmark's own.
	store := media.NewChunkStoreRetention(eagerRetention)
	d, _, _ = perChunk(func(c int) error { store.AppendChunk(1, v.refs[c], false); return nil })
	set("media.store.append_us", us(d))
	newest := store.ChunkCount(1) - 1
	d, _, err = timeCalls(func() error { _, err := store.Chunk(1, newest); return err })
	if err != nil {
		return err
	}
	set("media.store.get_us", us(d))
	return nil
}
