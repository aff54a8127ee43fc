package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the ID of the span
// that caused this one (0 for the roots, "chunk" and "fetch").
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Stream uint32 `json:"stream"`
	Seq    int64  `json:"seq"`
}

// Spans cross goroutines and a TCP hop inside the system under test,
// which carries no trace context; a child finds its parent through the
// identifiers both sides already see. spanKey names an open span by
// those identifiers: a chunk by (stream, index in the content cycle),
// a dispatch by (stream, display index of an anchor it carries), a
// fetch by (stream, chunk seq).
type spanKey struct {
	kind   uint8
	stream uint32
	key    int64
}

const (
	keyChunk uint8 = iota
	keyDispatch
	keyFetch
)

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing; the wrappers that feed it stay in the
// path either way, so switching it off measures the wrappers' own cost.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	open  map[spanKey]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[spanKey]int64)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin allocates a span ID and publishes it under its keys so children
// can find it; it returns 0 when the tracer is off.
func (t *tracer) begin(keys ...spanKey) int64 {
	if !t.enabled() {
		return 0
	}
	id := t.ids.Add(1)
	if len(keys) > 0 {
		t.mu.Lock()
		for _, k := range keys {
			t.open[k] = id
		}
		t.mu.Unlock()
	}
	return id
}

// lookup returns the ID of the most recently opened span under k.
func (t *tracer) lookup(k spanKey) int64 {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[k]
}

// end records a span begun with id and retires its keys.
func (t *tracer) end(id int64, name string, parent int64, start, end time.Time, stream uint32, seq int64, keys ...spanKey) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	for _, k := range keys {
		if t.open[k] == id {
			delete(t.open, k)
		}
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Stream: stream, Seq: seq,
	})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the layer table.
type layerRow struct {
	name            string
	count           int
	totalMs, selfMs float64
	p50Ms, p99Ms    float64
	durs            []float64 // ms, ascending
	// parentSelf is the self time of the spans that have children.
	parentSelf []float64
}

// layerTable folds the spans that started in [from, to) by name. A
// span's self time is its duration minus the part of it its children
// cover (their union, clipped to the span).
func (t *tracer) layerTable(from, to time.Time) map[string]*layerRow {
	lo, hi := int64(from.Sub(t.epoch)), int64(to.Sub(t.epoch))
	children := make(map[int64][]int, len(t.spans)/2)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range t.spans {
		if s.Start < lo || s.Start >= hi {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		r.count++
		r.durs = append(r.durs, float64(dur)/1e6)
		r.selfMs += float64(dur-covered) / 1e6
		if len(kids) > 0 {
			r.parentSelf = append(r.parentSelf, float64(dur-covered)/1e6)
		}
	}
	for _, r := range rows {
		for _, d := range r.durs {
			r.totalMs += d
		}
		sort.Float64s(r.durs)
		sort.Float64s(r.parentSelf)
		r.p50Ms, _ = percentile(r.durs, 0.50)
		r.p99Ms, _ = percentile(r.durs, 0.99)
	}
	return rows
}

// printLayerTable writes the layer table, largest self time first.
func printLayerTable(w io.Writer, rows map[string]*layerRow) {
	list := make([]*layerRow, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].selfMs > list[b].selfMs })
	fmt.Fprintf(w, "  %-14s %9s %12s %12s %10s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms", "p99_ms")
	for _, r := range list {
		fmt.Fprintf(w, "  %-14s %9d %12.1f %12.1f %10.3f %10.3f\n", r.name, r.count, r.totalMs, r.selfMs, r.p50Ms, r.p99Ms)
	}
}

// deviceAnchorCost is the modelled accelerator time of one anchor.
const deviceAnchorCost = 40 * time.Millisecond

// device is the benchmark-owned accelerator of one enhancer replica: it
// runs one anchor at a time, charges each a fixed modelled cost to a
// counter, and sleeps that cost only where the workload says the device
// sleeps. GPU time is read from the counter, never from a clock.
type device struct {
	mu      sync.Mutex
	sleeps  bool
	anchors atomic.Int64
}

// deviceModel puts a device in front of one stream's SR model.
type deviceModel struct {
	dev    *device
	inner  sr.Model
	stream uint32
	tr     *tracer
}

func (m *deviceModel) Config() sr.ModelConfig { return m.inner.Config() }

func (m *deviceModel) Apply(lr *frame.Frame, displayIndex int) (*frame.Frame, error) {
	m.dev.anchors.Add(1)
	traced := m.tr.enabled()
	var parent, waitID, runID, applyID int64
	var t0, t1, t2 time.Time
	if traced {
		parent = m.tr.lookup(spanKey{keyDispatch, m.stream, int64(displayIndex)})
		waitID, runID, applyID = m.tr.begin(), m.tr.begin(), m.tr.begin()
		t0 = time.Now()
	}
	m.dev.mu.Lock()
	defer m.dev.mu.Unlock()
	if traced {
		t1 = time.Now()
	}
	if m.dev.sleeps {
		time.Sleep(deviceAnchorCost)
	}
	if traced {
		t2 = time.Now()
	}
	out, err := m.inner.Apply(lr, displayIndex)
	if traced {
		t3 := time.Now()
		seq := int64(displayIndex)
		m.tr.end(waitID, "device.wait", parent, t0, t1, m.stream, seq)
		m.tr.end(applyID, "sr.apply", runID, t2, t3, m.stream, seq)
		m.tr.end(runID, "device.run", parent, t1, t3, m.stream, seq)
	}
	return out, err
}

// tracedPool stands between the origin and its enhancer pool: it is the
// media.AnchorEnhancer handed to NewServer in a traced run, and records
// one pool.dispatch span per call the origin makes.
type tracedPool struct {
	inner      *media.EnhancerPool
	tr         *tracer
	dispatches atomic.Int64
	jobs       atomic.Int64
}

func (p *tracedPool) Register(streamID uint32, h wire.Hello) error {
	return p.inner.Register(streamID, h)
}

func (p *tracedPool) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	done := p.dispatch(streamID, []wire.AnchorJob{job})
	res, err := p.inner.Enhance(streamID, job)
	done()
	return res, err
}

func (p *tracedPool) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]media.AnchorOutcome, error) {
	done := p.dispatch(streamID, jobs)
	outs, err := p.inner.EnhanceBatch(streamID, jobs)
	done()
	return outs, err
}

func (p *tracedPool) dispatch(streamID uint32, jobs []wire.AnchorJob) func() {
	if !p.tr.enabled() || len(jobs) == 0 {
		return func() {}
	}
	p.dispatches.Add(1)
	p.jobs.Add(int64(len(jobs)))
	keys := make([]spanKey, len(jobs))
	for i, j := range jobs {
		keys[i] = spanKey{keyDispatch, streamID, int64(j.DisplayIndex)}
	}
	cycle := int64(jobs[0].DisplayIndex / gopFrames)
	parent := p.tr.lookup(spanKey{keyChunk, streamID, cycle})
	id := p.tr.begin(keys...)
	start := time.Now()
	return func() {
		p.tr.end(id, "pool.dispatch", parent, start, time.Now(), streamID, cycle, keys...)
	}
}

// upstreamStats sums what the edge's origin connections carried.
type upstreamStats struct {
	fetches atomic.Int64
	bytes   atomic.Int64
}

// tracedConn wraps one edge→origin connection (edge.Config.DialUpstream).
// The edge uses such a conn for one request and its reply at a time, so
// an edge.upstream span runs from a request's first write to the last
// read before the next request (or the close).
type tracedConn struct {
	net.Conn
	tr    *tracer
	stats *upstreamStats

	wbuf     []byte
	id       int64
	parent   int64
	stream   uint32
	seq      int64
	start    time.Time
	lastRead time.Time
	read     int64
}

func (c *tracedConn) Write(b []byte) (int, error) {
	if len(c.wbuf) == 0 {
		c.flush()
		c.start = time.Now()
	}
	c.wbuf = append(c.wbuf, b...)
	if msg, err := wire.Read(bytes.NewReader(c.wbuf), 1<<16); err == nil {
		c.wbuf = c.wbuf[:0]
		if req, err := wire.DecodeFetchChunk(msg.Payload); err == nil && msg.Type == wire.TypeFetchChunk {
			c.stream, c.seq = msg.StreamID, int64(req.Seq)
			c.id = c.tr.begin()
			c.parent = c.tr.lookup(spanKey{keyFetch, c.stream, c.seq})
		}
	}
	return c.Conn.Write(b)
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.lastRead = time.Now()
		c.read += int64(n)
	}
	return n, err
}

func (c *tracedConn) Close() error {
	c.flush()
	return c.Conn.Close()
}

// flush ends the span of the request whose reply has been read.
func (c *tracedConn) flush() {
	if c.id != 0 && c.read > 0 {
		c.stats.fetches.Add(1)
		c.stats.bytes.Add(c.read)
		c.tr.end(c.id, "edge.upstream", c.parent, c.start, c.lastRead, c.stream, c.seq)
	}
	c.id, c.read = 0, 0
}
