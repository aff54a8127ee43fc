package main

import (
	"fmt"
	"net"

	"github.com/neuroscaler/neuroscaler/internal/edge"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
)

// replicaCount is the size of the enhancer tier in every workload.
const replicaCount = 2

// eagerRetention is the per-stream store cap of the eager origins. It
// is small so the store reaches its steady state (one eviction per
// append) inside the warm-up instead of part-way through the window.
const eagerRetention = 64

// topoSpec says which parts of the serving path a workload stands up
// and how.
type topoSpec struct {
	lazy      bool  // origin defers enhancement to first fetch
	remote    bool  // replicas are EnhancerServers behind TCPReplica, not in-process
	sleeps    bool  // the device sleeps its modelled cost
	edgeCache int64 // edge cache bytes; 0 = no edge
}

// topology is the system under test, in one process over loopback:
// enhancer replicas → pool → origin → edge.
type topology struct {
	devices  []*device
	enhSrvs  []*media.EnhancerServer
	pool     *media.EnhancerPool
	tpool    *tracedPool
	origin   *media.Server
	edge     *edge.Edge
	upstream upstreamStats
}

// startTopology builds the topology for spec. videoOf maps a stream to
// its content; tr is nil in an untraced run, which then has none of the
// three wrappers in its path except the device.
func startTopology(spec topoSpec, videoOf func(uint32) *video, tr *tracer) (t *topology, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	replicas := make([]media.Replica, replicaCount)
	for i := range replicas {
		dev := &device{sleeps: spec.sleeps}
		t.devices = append(t.devices, dev)
		wrap := func(streamID uint32, m sr.Model) sr.Model {
			return &deviceModel{dev: dev, inner: m, stream: streamID, tr: tr}
		}
		local, err := media.NewLocalEnhancer(oracleProvider(videoOf, wrap))
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("r%d", i)
		if !spec.remote {
			replicas[i] = media.StaticReplica(id, local)
			continue
		}
		srv, err := media.NewEnhancerServerWith("127.0.0.1:0", local, media.EnhancerServerConfig{Logf: quietf})
		if err != nil {
			return nil, err
		}
		t.enhSrvs = append(t.enhSrvs, srv)
		replicas[i] = media.TCPReplica(srv.Addr(), 0, 0)
		replicas[i].ID = id
	}
	if t.pool, err = media.NewEnhancerPool(replicas, media.PoolConfig{Seed: 1, Logf: quietf}); err != nil {
		return nil, err
	}
	var enhancer media.AnchorEnhancer = t.pool
	if tr != nil {
		t.tpool = &tracedPool{inner: t.pool, tr: tr}
		enhancer = t.tpool
	}
	cfg := media.ServerConfig{
		AnchorFraction:  anchorFraction,
		LazyEnhancement: spec.lazy,
		ChunkRetention:  eagerRetention,
		// NewServer sizes this from the pool only when handed the pool
		// itself; fixing it keeps traced and untraced runs on one setting.
		MaxInFlightAnchors: media.DefaultEnhancerJobConcurrency * replicaCount,
		Logf:               quietf,
	}
	if spec.lazy {
		cfg.ChunkRetention = -1 // the catalog must stay whole
	}
	if t.origin, err = media.NewServer("127.0.0.1:0", enhancer, cfg); err != nil {
		return nil, err
	}
	if spec.edgeCache > 0 {
		ecfg := edge.Config{Upstream: t.origin.Addr(), CacheBytes: spec.edgeCache}
		if tr != nil {
			ecfg.DialUpstream = func(addr string) (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return &tracedConn{Conn: c, tr: tr, stats: &t.upstream}, nil
			}
		}
		if t.edge, err = edge.NewEdge("127.0.0.1:0", ecfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// close tears the topology down front to back and waits for every
// goroutine it started.
func (t *topology) close() {
	if t.edge != nil {
		_ = t.edge.Close()
	}
	if t.origin != nil {
		_ = t.origin.Close()
	}
	if t.pool != nil {
		_ = t.pool.Close()
	}
	for _, s := range t.enhSrvs {
		_ = s.Close()
	}
}

// anchorsRun is the number of anchors the devices have run since the
// topology started.
func (t *topology) anchorsRun() int64 {
	var n int64
	for _, d := range t.devices {
		n += d.anchors.Load()
	}
	return n
}
