package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

// Payload codecs for the message types that carry structured data. All
// integers are big-endian; variable-length fields are length-prefixed.

// Hello announces a new ingest stream.
type Hello struct {
	Config vcodec.Config
	Scale  int
	Model  sr.ModelConfig
	// Content is a free-form label (profile name) for diagnostics.
	Content string
	// Priority classes the stream for overload control: 0 is foreground
	// (never floored by brownout), higher values are background tiers the
	// server may degrade to the bilinear floor first.
	Priority uint8
}

// EncodeHello serializes a Hello payload.
func EncodeHello(h Hello) ([]byte, error) {
	if len(h.Content) > 255 {
		return nil, errors.New("wire: content label too long")
	}
	buf := make([]byte, 0, 64)
	buf = appendConfig(buf, h.Config)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Scale))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Model.Blocks))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Model.Channels))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.Model.Scale))
	buf = append(buf, h.Priority, byte(len(h.Content)))
	return append(buf, h.Content...), nil
}

// DecodeHello parses a Hello payload, refusing any bytes after Content.
func DecodeHello(data []byte) (Hello, error) {
	var h Hello
	cfg, rest, err := readConfig(data)
	if err != nil {
		return h, err
	}
	if len(rest) < 10 {
		return h, errors.New("wire: truncated hello")
	}
	h.Config = cfg
	h.Scale = int(binary.BigEndian.Uint16(rest))
	h.Model.Blocks = int(binary.BigEndian.Uint16(rest[2:]))
	h.Model.Channels = int(binary.BigEndian.Uint16(rest[4:]))
	h.Model.Scale = int(binary.BigEndian.Uint16(rest[6:]))
	h.Priority = rest[8]
	if n := int(rest[9]); len(rest) != 10+n {
		return h, fmt.Errorf("wire: hello content is %d bytes, header says %d", len(rest)-10, n)
	}
	h.Content = string(rest[10:])
	return h, nil
}

func appendConfig(buf []byte, c vcodec.Config) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.Width))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.Height))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.FPS))
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.BitrateKbps))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.GOP))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.AltRefInterval))
	buf = append(buf, byte(c.Mode))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c.SearchRange))
	return buf
}

func readConfig(data []byte) (vcodec.Config, []byte, error) {
	const need = 2 + 2 + 2 + 4 + 2 + 2 + 1 + 2
	if len(data) < need {
		return vcodec.Config{}, nil, errors.New("wire: truncated stream config")
	}
	c := vcodec.Config{
		Width:          int(binary.BigEndian.Uint16(data)),
		Height:         int(binary.BigEndian.Uint16(data[2:])),
		FPS:            int(binary.BigEndian.Uint16(data[4:])),
		BitrateKbps:    int(binary.BigEndian.Uint32(data[6:])),
		GOP:            int(binary.BigEndian.Uint16(data[10:])),
		AltRefInterval: int(binary.BigEndian.Uint16(data[12:])),
		Mode:           vcodec.RateMode(data[14]),
		SearchRange:    int(binary.BigEndian.Uint16(data[15:])),
	}
	return c, data[need:], nil
}

// EncodeChunk serializes a batch of encoded video packets.
func EncodeChunk(packets [][]byte) []byte {
	size := 4
	for _, p := range packets {
		size += 4 + len(p)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(packets)))
	for _, p := range packets {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// DecodeChunk parses a chunk payload into packet slices that alias data
// instead of copying it. The caller owns data and must keep it alive (and
// unrecycled) for as long as any returned packet is referenced; pooled
// payloads may only go back to their pool after the last packet use.
func DecodeChunk(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, errors.New("wire: truncated chunk")
	}
	n := binary.BigEndian.Uint32(data)
	data = data[4:]
	// Every packet takes at least its 4-byte length, so a count the
	// payload cannot hold is refused before anything is sized by it.
	if uint64(n) > uint64(len(data)/4) {
		return nil, fmt.Errorf("wire: %d packets claimed in %d bytes", n, len(data))
	}
	out := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(data) < 4 {
			return nil, errors.New("wire: truncated packet length")
		}
		l := binary.BigEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < l {
			return nil, errors.New("wire: truncated packet body")
		}
		out = append(out, data[:l:l])
		data = data[l:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("wire: %d bytes after the last packet", len(data))
	}
	return out, nil
}

// Vec is a payload held as the parts one vectored write sends (see
// Conn.WriteParts and Mux.CallParts): the fixed-size fields go into a
// scratch head, and each body — a frame plane, a coded anchor — is a part
// of its own, cut into the head where it belongs. Bodies are referenced,
// never copied, so they must stay unmodified until the frame carrying
// them has been written. The zero value is empty; Reset empties a Vec and
// keeps its storage.
type Vec struct {
	head []byte
	// cuts[i] is len(head) when bodies[i] was added.
	cuts   []int
	bodies [][]byte
	parts  [][]byte
}

// Reset empties v, dropping its body references and keeping its storage.
func (v *Vec) Reset() {
	clear(v.bodies)
	clear(v.parts)
	v.head, v.cuts, v.bodies, v.parts = v.head[:0], v.cuts[:0], v.bodies[:0], v.parts[:0]
}

// body cuts b into the payload after everything added so far.
func (v *Vec) body(b []byte) {
	v.cuts = append(v.cuts, len(v.head))
	v.bodies = append(v.bodies, b)
}

// Len is the payload's size in bytes.
func (v *Vec) Len() int {
	n := len(v.head)
	for _, b := range v.bodies {
		n += len(b)
	}
	return n
}

// Parts returns the payload's non-empty parts in order. The slice is v's
// own and valid until v next changes.
func (v *Vec) Parts() [][]byte {
	v.parts = v.parts[:0]
	add := func(p []byte) {
		if len(p) > 0 {
			v.parts = append(v.parts, p)
		}
	}
	lo := 0
	for i, cut := range v.cuts {
		add(v.head[lo:cut])
		add(v.bodies[i])
		lo = cut
	}
	add(v.head[lo:])
	return v.parts
}

// putFrame adds f as a raw YUV frame: its size, then each plane's rows,
// one body per plane when the plane is compact.
func (v *Vec) putFrame(f *frame.Frame) {
	v.head = binary.BigEndian.AppendUint16(v.head, uint16(f.W))
	v.head = binary.BigEndian.AppendUint16(v.head, uint16(f.H))
	for _, p := range f.Planes() {
		if p.Stride == p.W {
			v.body(p.Pix[:p.W*p.H])
			continue
		}
		for y := 0; y < p.H; y++ {
			v.body(p.Row(y))
		}
	}
}

// frameBodySize is the body length of a w×h raw YUV 4:2:0 frame.
func frameBodySize(w, h int) int {
	cw, ch := (w+1)/2, (h+1)/2
	return w*h + 2*cw*ch
}

// decodeFrame parses a raw YUV frame into a frame borrowed from the frame
// arena, which the caller owns and may Release. The header's size is
// checked against the body before anything is borrowed, so a payload that
// lies about its size costs nothing.
func decodeFrame(data []byte) (*frame.Frame, error) {
	if len(data) < 4 {
		return nil, errors.New("wire: truncated frame header")
	}
	w := int(binary.BigEndian.Uint16(data))
	h := int(binary.BigEndian.Uint16(data[2:]))
	if w == 0 || h == 0 {
		return nil, fmt.Errorf("wire: frame header: %w", frame.ErrBadDimensions)
	}
	data = data[4:]
	if want := frameBodySize(w, h); len(data) != want {
		return nil, fmt.Errorf("wire: frame body %d bytes, want %d", len(data), want)
	}
	f := frame.Borrow(w, h)
	for _, p := range f.Planes() {
		for y := 0; y < p.H; y++ {
			copy(p.Row(y), data[:p.W])
			data = data[p.W:]
		}
	}
	return f, nil
}

// AnchorJob asks an enhancer to super-resolve one anchor frame.
type AnchorJob struct {
	Packet       int
	DisplayIndex int
	QP           int
	Frame        *frame.Frame
	// Deadline is the local absolute deadline for this job; zero means
	// unbounded. It is process-local and never serialized: across the
	// wire the deadline travels as the frame header's relative Budget
	// (see wire.Message), and each receiver re-derives its own local
	// Deadline from arrival time plus budget.
	Deadline time.Time
}

// anchorJobSize is the encoded size of one anchor job batch entry.
func anchorJobSize(j AnchorJob) int {
	return 12 + 4 + frameBodySize(j.Frame.W, j.Frame.H)
}

// decodeAnchorJob parses one batch entry written by PutAnchorBatchJob.
func decodeAnchorJob(data []byte) (AnchorJob, error) {
	var j AnchorJob
	if len(data) < 12 {
		return j, errors.New("wire: truncated anchor job")
	}
	j.Packet = int(binary.BigEndian.Uint32(data))
	j.DisplayIndex = int(binary.BigEndian.Uint32(data[4:]))
	j.QP = int(binary.BigEndian.Uint32(data[8:]))
	f, err := decodeFrame(data[12:])
	if err != nil {
		return j, err
	}
	j.Frame = f
	return j, nil
}

// AnchorResult returns one enhanced anchor.
type AnchorResult struct {
	Packet  int
	Encoded []byte
}

// maxAnchorBatch bounds the per-frame anchor count against malformed or
// malicious batch payloads; real batches are bounded by the server's
// in-flight anchor cap, far below this.
const maxAnchorBatch = 4096

// PutAnchorBatchJob adds the TypeAnchorBatchJob payload of jobs to v:
// count(4), then each job as a length-prefixed entry of packet(4)
// display(4) qp(4) and its raw frame, whose planes are bodies. The batch
// goes out without its frames being copied, and they must not change
// until it has.
func (v *Vec) PutAnchorBatchJob(jobs []AnchorJob) {
	v.head = binary.BigEndian.AppendUint32(v.head, uint32(len(jobs)))
	for _, j := range jobs {
		v.head = binary.BigEndian.AppendUint32(v.head, uint32(anchorJobSize(j)))
		v.head = binary.BigEndian.AppendUint32(v.head, uint32(j.Packet))
		v.head = binary.BigEndian.AppendUint32(v.head, uint32(j.DisplayIndex))
		v.head = binary.BigEndian.AppendUint32(v.head, uint32(j.QP))
		v.putFrame(j.Frame)
	}
}

// ReleaseFrames returns each job's frame to the frame arena and clears it
// from the job, for the owner of a batch nothing will send or read again.
func ReleaseFrames(jobs []AnchorJob) {
	for i := range jobs {
		frame.Release(jobs[i].Frame)
		jobs[i].Frame = nil
	}
}

// DecodeAnchorBatchJob parses a batch anchor job payload. The jobs'
// frames are borrowed from the frame arena (see decodeFrame); on error
// none stays borrowed.
func DecodeAnchorBatchJob(data []byte) ([]AnchorJob, error) {
	if len(data) < 4 {
		return nil, errors.New("wire: truncated anchor batch")
	}
	n := binary.BigEndian.Uint32(data)
	if n > maxAnchorBatch {
		return nil, fmt.Errorf("wire: unreasonable anchor batch size %d", n)
	}
	data = data[4:]
	// An entry is at least its length, three fields and a frame header,
	// so a count the payload cannot hold reserves nothing.
	jobs := make([]AnchorJob, 0, min(int(n), len(data)/20))
	for i := uint32(0); i < n; i++ {
		if len(data) < 4 {
			return nil, errors.New("wire: truncated anchor batch entry length")
		}
		l := binary.BigEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < l {
			return nil, errors.New("wire: truncated anchor batch entry")
		}
		j, err := decodeAnchorJob(data[:l])
		if err != nil {
			ReleaseFrames(jobs)
			return nil, err
		}
		jobs = append(jobs, j)
		data = data[l:]
	}
	if len(data) != 0 {
		ReleaseFrames(jobs)
		return nil, errors.New("wire: trailing bytes after anchor batch")
	}
	return jobs, nil
}

// AnchorOutcome is one anchor's outcome within a batch, in job order:
// exactly one of Res or Err is meaningful. Anchors fail independently —
// one bad anchor never poisons its batch siblings. On the wire Err
// travels as its message.
type AnchorOutcome struct {
	Res AnchorResult
	Err error
}

// PutAnchorBatchResult adds the TypeAnchorBatchResult payload of outs to
// v: count(4), then per outcome packet(4), an error message behind a
// 16-bit length, and the coded anchor behind a 32-bit length, as a body.
// An error message longer than its length field is cut to fit rather
// than voiding the frame, and with it the siblings' results.
func (v *Vec) PutAnchorBatchResult(outs []AnchorOutcome) {
	v.head = binary.BigEndian.AppendUint32(v.head, uint32(len(outs)))
	for _, o := range outs {
		var msg string
		if o.Err != nil {
			msg = o.Err.Error()
			msg = msg[:min(len(msg), 0xFFFF)]
		}
		v.head = binary.BigEndian.AppendUint32(v.head, uint32(o.Res.Packet))
		v.head = binary.BigEndian.AppendUint16(v.head, uint16(len(msg)))
		v.head = append(v.head, msg...)
		v.head = binary.BigEndian.AppendUint32(v.head, uint32(len(o.Res.Encoded)))
		v.body(o.Res.Encoded)
	}
}

// FetchChunk asks a serving tier for one stored chunk of a stream. The
// stream rides the frame header's StreamID; Seq here is the chunk
// sequence number (0-based chunk index), distinct from the frame
// header's request-correlation Seq. Quality selects the delivery rung
// (0 is the enhanced default; the origin only serves rung 0, an edge
// may cache several).
type FetchChunk struct {
	Seq     uint32
	Quality uint8
}

// AppendFetchChunk appends the 5-byte FetchChunk payload of f to dst.
func AppendFetchChunk(dst []byte, f FetchChunk) []byte {
	return append(binary.BigEndian.AppendUint32(dst, f.Seq), f.Quality)
}

// DecodeFetchChunk parses a FetchChunk payload.
func DecodeFetchChunk(data []byte) (FetchChunk, error) {
	if len(data) != 5 {
		return FetchChunk{}, errors.New("wire: malformed fetch-chunk")
	}
	return FetchChunk{Seq: binary.BigEndian.Uint32(data), Quality: data[4]}, nil
}

// Subscribe registers the sending connection for unsolicited chunk-data
// pushes of one stream, starting at chunk sequence FromSeq.
type Subscribe struct {
	FromSeq uint32
	Quality uint8
}

// EncodeSubscribe serializes a Subscribe payload.
func EncodeSubscribe(s Subscribe) []byte {
	buf := make([]byte, 0, 5)
	buf = binary.BigEndian.AppendUint32(buf, s.FromSeq)
	return append(buf, s.Quality)
}

// DecodeSubscribe parses a Subscribe payload.
func DecodeSubscribe(data []byte) (Subscribe, error) {
	if len(data) != 5 {
		return Subscribe{}, errors.New("wire: malformed subscribe")
	}
	return Subscribe{FromSeq: binary.BigEndian.Uint32(data), Quality: data[4]}, nil
}

// ChunkData delivers one enhanced hybrid container.
//
// Layout: seq(4) quality(1) dataLen(4) data flags(1). The per-delivery
// flags byte rides at the END so an edge can cache the marshalled
// prefix (everything before flags) verbatim from its upstream read and
// fan it out with Conn.WriteShared, flipping only the trailing byte — a
// cache hit and the original miss delivery share the same immutable
// prefix bytes and differ in exactly one tail byte.
type ChunkData struct {
	Seq     uint32
	Quality uint8
	// Data is the marshalled hybrid container.
	Data []byte
	// Degraded mirrors the store's degraded flag (some anchors fell back
	// to the bilinear floor).
	Degraded bool
	// CacheHit reports whether this delivery was served from an edge
	// cache (BONES-style signal: the client's controller reads it to
	// bias the next quality choice after cold misses).
	CacheHit bool
}

const (
	chunkDataFlagDegraded = 1 << 0
	chunkDataFlagCacheHit = 1 << 1
	// chunkDataHeadLen is the size of everything before Data: seq(4)
	// quality(1) dataLen(4).
	chunkDataHeadLen = 4 + 1 + 4
)

// ChunkDataFlags packs the per-delivery trailing flags byte.
func ChunkDataFlags(degraded, cacheHit bool) byte {
	var f byte
	if degraded {
		f |= chunkDataFlagDegraded
	}
	if cacheHit {
		f |= chunkDataFlagCacheHit
	}
	return f
}

// flagTails holds every flags byte value, so a delivery's tail is a slice
// of it rather than an allocation. Nothing writes to it.
var flagTails = [4]byte{0, 1, 2, 3}

// ChunkDataTail returns the one-byte payload tail carrying the flags
// (see ChunkDataFlags), for Conn.WriteShared after a cached prefix. The
// slice is shared and must not be modified.
func ChunkDataTail(degraded, cacheHit bool) []byte {
	f := ChunkDataFlags(degraded, cacheHit)
	return flagTails[f : f+1 : f+1]
}

// putChunkDataHead fills head with c's seq, quality and container length.
func putChunkDataHead(head *[chunkDataHeadLen]byte, c ChunkData) {
	binary.BigEndian.PutUint32(head[0:], c.Seq)
	head[4] = c.Quality
	binary.BigEndian.PutUint32(head[5:], uint32(len(c.Data)))
}

// EncodeChunkData serializes a ChunkData payload. Conn.WriteChunkData
// sends the same bytes without copying c.Data.
func EncodeChunkData(c ChunkData) []byte {
	buf := make([]byte, 0, 4+1+4+len(c.Data)+1)
	buf = binary.BigEndian.AppendUint32(buf, c.Seq)
	buf = append(buf, c.Quality)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Data)))
	buf = append(buf, c.Data...)
	return append(buf, ChunkDataFlags(c.Degraded, c.CacheHit))
}

// ChunkDataPrefix splits an encoded ChunkData payload into its shared
// immutable prefix (everything before the trailing flags byte, aliasing
// payload) and the flags byte, validating the framing. An edge caches
// the prefix and re-emits it with Conn.WriteShared plus a fresh flags
// tail (ChunkDataTail). A flags byte with a bit no flag owns is refused,
// so every payload it accepts re-encodes to itself.
func ChunkDataPrefix(payload []byte) (prefix []byte, flags byte, err error) {
	if len(payload) < 10 {
		return nil, 0, errors.New("wire: truncated chunk-data")
	}
	n := binary.BigEndian.Uint32(payload[5:])
	if uint32(len(payload)-10) != n {
		return nil, 0, errors.New("wire: chunk-data length mismatch")
	}
	flags = payload[len(payload)-1]
	if flags&^(chunkDataFlagDegraded|chunkDataFlagCacheHit) != 0 {
		return nil, 0, fmt.Errorf("wire: unknown chunk-data flags %#x", flags)
	}
	return payload[:len(payload)-1], flags, nil
}

// DecodeChunkData parses a ChunkData payload, copying the container
// bytes out of data.
func DecodeChunkData(data []byte) (ChunkData, error) {
	c, err := DecodeChunkDataAlias(data)
	if err != nil {
		return c, err
	}
	c.Data = append([]byte(nil), c.Data...)
	return c, nil
}

// DecodeChunkDataAlias parses a ChunkData payload like DecodeChunkData
// but returns Data aliasing data instead of copying. The caller owns
// data and must keep it alive (and unrecycled) while Data is
// referenced.
func DecodeChunkDataAlias(data []byte) (ChunkData, error) {
	prefix, flags, err := ChunkDataPrefix(data)
	if err != nil {
		return ChunkData{}, err
	}
	return ChunkData{
		Seq:      binary.BigEndian.Uint32(prefix),
		Quality:  prefix[4],
		Data:     prefix[9:len(prefix):len(prefix)],
		Degraded: flags&chunkDataFlagDegraded != 0,
		CacheHit: flags&chunkDataFlagCacheHit != 0,
	}, nil
}

// DecodeAnchorBatchResult parses per-anchor batch outcomes. Each Encoded
// aliases data instead of copying out of it, so the caller must leave
// data unmodified (and unrecycled) while the outcomes are referenced — a
// reply payload from Read, allocated for that frame alone, needs no care.
func DecodeAnchorBatchResult(data []byte) ([]AnchorOutcome, error) {
	if len(data) < 4 {
		return nil, errors.New("wire: truncated anchor batch result")
	}
	n := binary.BigEndian.Uint32(data)
	if n > maxAnchorBatch {
		return nil, fmt.Errorf("wire: unreasonable anchor batch size %d", n)
	}
	data = data[4:]
	// An outcome is at least its packet and two lengths.
	outs := make([]AnchorOutcome, 0, min(int(n), len(data)/10))
	for i := uint32(0); i < n; i++ {
		if len(data) < 6 {
			return nil, errors.New("wire: truncated batch outcome header")
		}
		var o AnchorOutcome
		o.Res.Packet = int(binary.BigEndian.Uint32(data))
		el := int(binary.BigEndian.Uint16(data[4:]))
		data = data[6:]
		if len(data) < el {
			return nil, errors.New("wire: truncated batch outcome error")
		}
		if el > 0 {
			o.Err = errors.New(string(data[:el]))
		}
		data = data[el:]
		if len(data) < 4 {
			return nil, errors.New("wire: truncated batch outcome length")
		}
		bl := binary.BigEndian.Uint32(data)
		data = data[4:]
		if uint32(len(data)) < bl {
			return nil, errors.New("wire: truncated batch outcome body")
		}
		if bl > 0 {
			o.Res.Encoded = data[:bl:bl]
		}
		outs = append(outs, o)
		data = data[bl:]
	}
	if len(data) != 0 {
		return nil, errors.New("wire: trailing bytes after batch result")
	}
	return outs, nil
}
