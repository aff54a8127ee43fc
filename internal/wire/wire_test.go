package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: TypeHello, StreamID: 7, Seq: 0, Payload: []byte("hi")},
		{Type: TypeChunk, StreamID: 7, Seq: 1, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: TypeAck, StreamID: 7, Seq: 1},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := Read(&buf, DefaultMaxPayload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.StreamID != want.StreamID || got.Seq != want.Seq {
			t.Fatalf("header mismatch: %+v vs %+v", got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatal("payload mismatch")
		}
	}
	if _, err := Read(&buf, DefaultMaxPayload); err != io.EOF {
		t.Errorf("after drain, err = %v, want io.EOF", err)
	}
}

// TestUnassignedTypesRefused covers the unset type, the first value past
// the last assigned one and the largest: no writer emits them and no
// reader hands them to a handler.
func TestUnassignedTypesRefused(t *testing.T) {
	var buf bytes.Buffer
	_ = Write(&buf, Message{Type: TypeAck, Payload: []byte("x")})
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a, 0, testTimeout) // a refused frame never reaches the pipe
	defer c.Close()
	for _, typ := range []Type{0, Type(len(typeNames)), 255} {
		if err := Write(io.Discard, Message{Type: typ}); err == nil {
			t.Errorf("Write accepted type %d", typ)
		}
		if err := c.Write(Message{Type: typ}); err == nil {
			t.Errorf("Conn.Write accepted type %d", typ)
		}
		if err := c.WriteShared(Message{Type: typ}, nil, nil, 0); err == nil {
			t.Errorf("Conn.WriteShared accepted type %d", typ)
		}
		if err := c.WriteChunkData(Message{Type: typ}, ChunkData{}); err == nil {
			t.Errorf("Conn.WriteChunkData accepted type %d", typ)
		}
		frame := append([]byte(nil), buf.Bytes()...)
		frame[2] = byte(typ)
		if _, err := Read(bytes.NewReader(frame), DefaultMaxPayload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("Read of type %d: err = %v, want ErrBadFrame", typ, err)
		}
		var pool par.SlabPool[byte]
		if _, err := ReadPooled(bytes.NewReader(frame), DefaultMaxPayload, &pool); !errors.Is(err, ErrBadFrame) {
			t.Errorf("ReadPooled of type %d: err = %v, want ErrBadFrame", typ, err)
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	_ = Write(&buf, Message{Type: TypeAck})
	data := buf.Bytes()
	data[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(data), DefaultMaxPayload); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

func TestReadRejectsCorruptPayload(t *testing.T) {
	var buf bytes.Buffer
	_ = Write(&buf, Message{Type: TypeChunk, Payload: []byte("hello world")})
	data := buf.Bytes()
	data[len(data)-1] ^= 0x01
	if _, err := Read(bytes.NewReader(data), DefaultMaxPayload); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame (CRC)", err)
	}
}

func TestReadEnforcesPayloadLimit(t *testing.T) {
	var buf bytes.Buffer
	_ = Write(&buf, Message{Type: TypeChunk, Payload: make([]byte, 100)})
	if _, err := Read(&buf, 50); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	_ = Write(&buf, Message{Type: TypeChunk, Payload: make([]byte, 100)})
	data := buf.Bytes()[:40]
	if _, err := Read(bytes.NewReader(data), DefaultMaxPayload); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		m, err := Read(conn, DefaultMaxPayload)
		if err != nil {
			done <- err
			return
		}
		m.Type = TypeAck
		done <- Write(conn, m)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Write(conn, Message{Type: TypeChunk, StreamID: 3, Seq: 9, Payload: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	reply, err := Read(conn, DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeAck || reply.Seq != 9 {
		t.Errorf("reply = %+v", reply)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{
		Config: vcodec.Config{
			Width: 1280, Height: 720, FPS: 60, BitrateKbps: 4125,
			GOP: 120, AltRefInterval: 8, Mode: vcodec.ModeConstrainedVBR, SearchRange: 8,
		},
		Scale:   3,
		Model:   sr.HighQuality(),
		Content: "lol",
	}
	data, err := EncodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("hello round trip: %+v != %+v", got, h)
	}
	if _, err := DecodeHello(data[:5]); err == nil {
		t.Error("truncated hello accepted")
	}
	if _, err := DecodeHello(append(data, 0)); err == nil {
		t.Error("hello with a byte after its last field accepted")
	}
}

func TestChunkRoundTrip(t *testing.T) {
	pkts := [][]byte{{1, 2, 3}, {}, {0xFF}}
	got, err := DecodeChunk(EncodeChunk(pkts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("count %d != %d", len(got), len(pkts))
	}
	for i := range pkts {
		if !bytes.Equal(got[i], pkts[i]) {
			t.Fatalf("packet %d mismatch", i)
		}
	}
	if _, err := DecodeChunk([]byte{0, 0}); err == nil {
		t.Error("truncated chunk accepted")
	}
	bad := EncodeChunk(pkts)
	if _, err := DecodeChunk(bad[:len(bad)-1]); err == nil {
		t.Error("truncated packet body accepted")
	}
}

// TestDecodeChunkRefusesTrailingBytes: like every other payload decoder,
// DecodeChunk refuses bytes after its last packet instead of storing the
// chunk as if they were not there.
func TestDecodeChunkRefusesTrailingBytes(t *testing.T) {
	payload := EncodeChunk([][]byte{{1, 2, 3}, {}, {0xFF}})
	if _, err := DecodeChunk(append(payload, 0)); err == nil {
		t.Error("chunk with a byte after its last packet accepted")
	}
	if _, err := DecodeChunk(append(EncodeChunk(nil), 7, 7)); err == nil {
		t.Error("empty chunk with a tail accepted")
	}
}

// TestDecodeChunkBoundsCountByPayload: a packet count the payload cannot
// hold (each packet takes at least its 4-byte length) is refused before
// anything is sized by it; a 4-byte payload claiming 2^20 packets used to
// allocate 24 MiB of slice headers first.
func TestDecodeChunkBoundsCountByPayload(t *testing.T) {
	claim := []byte{0, 0x10, 0, 0} // 1<<20 packets, no bodies
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeChunk(claim)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("chunk claiming 2^20 packets in 0 bytes accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("refusing the claim allocated %d bytes, want under 64 KiB", got)
	}
	if _, err := DecodeChunk(append([]byte{0, 0, 0, 2}, EncodeChunk([][]byte{{1}})[4:]...)); err == nil {
		t.Error("chunk claiming 2 packets with room for 1 accepted")
	}
}

func TestFramePayloadRoundTrip(t *testing.T) {
	f := frame.MustNew(33, 17)
	for i := range f.Y.Pix {
		f.Y.Pix[i] = byte(i * 7)
	}
	var v Vec
	v.putFrame(f)
	got, err := decodeFrame(joinParts(&v))
	if err != nil {
		t.Fatal(err)
	}
	sad, err := frame.AbsDiffSum(got, f)
	if err != nil || sad != 0 {
		t.Errorf("frame payload round trip: sad=%d err=%v", sad, err)
	}
	if _, err := decodeFrame([]byte{0, 10, 0, 10, 1}); err == nil {
		t.Error("wrong-size frame body accepted")
	}
}

// Property: any message round-trips bit-exactly through Write/Read.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(typ uint8, stream, seq uint32, payload []byte) bool {
		// Any assigned type.
		m := Message{Type: Type(int(typ)%(len(typeNames)-1) + 1), StreamID: stream, Seq: seq, Payload: payload}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		got, err := Read(&buf, DefaultMaxPayload)
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.StreamID == m.StreamID &&
			got.Seq == m.Seq && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, typ := range []Type{TypePing, TypePong} {
		if err := Write(&buf, Message{Type: typ, Seq: 11}); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf, DefaultMaxPayload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != typ || got.Seq != 11 {
			t.Errorf("round trip = %+v, want type %v", got, typ)
		}
	}
	if TypePing.String() != "ping" || TypePong.String() != "pong" {
		t.Errorf("stringer: %v %v", TypePing, TypePong)
	}
	// One past the last valid type is still a bad frame.
	_ = Write(&buf, Message{Type: TypePong, Seq: 1})
	data := buf.Bytes()
	data[2] = byte(len(typeNames))
	if _, err := Read(bytes.NewReader(data), DefaultMaxPayload); !errors.Is(err, ErrBadFrame) {
		t.Errorf("out-of-range type err = %v, want ErrBadFrame", err)
	}
}

func TestAnchorBatchJobRoundTrip(t *testing.T) {
	jobs := []AnchorJob{
		{Packet: 0, DisplayIndex: 3, QP: 80, Frame: frame.MustNew(16, 16)},
		{Packet: 4, DisplayIndex: 11, QP: 95, Frame: frame.MustNew(24, 8)},
	}
	jobs[0].Frame.Y.Fill(12)
	jobs[1].Frame.Y.Fill(200)
	got, err := DecodeAnchorBatchJob(batchJobPayload(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("batch size = %d, want 2", len(got))
	}
	for i := range jobs {
		if got[i].Packet != jobs[i].Packet || got[i].DisplayIndex != jobs[i].DisplayIndex || got[i].QP != jobs[i].QP {
			t.Errorf("job %d fields: %+v", i, got[i])
		}
		sad, err := frame.AbsDiffSum(got[i].Frame, jobs[i].Frame)
		if err != nil || sad != 0 {
			t.Errorf("job %d frame: sad=%d err=%v", i, sad, err)
		}
	}
	// Empty batches round-trip (degenerate but legal).
	if got, err := DecodeAnchorBatchJob(batchJobPayload(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty batch: %v %v", got, err)
	}
	for _, bad := range [][]byte{{1}, {0, 0, 0, 1}, {0, 0, 0, 1, 0, 0, 0, 9, 1}, {0, 0, 0, 1, 0, 0, 0, 2, 1, 2}} {
		if _, err := DecodeAnchorBatchJob(bad); err == nil {
			t.Errorf("malformed batch %v accepted", bad)
		}
	}
	enc := batchJobPayload(jobs[:1])
	if _, err := DecodeAnchorBatchJob(append(enc, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestAnchorBatchResultRoundTrip(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	outs := []AnchorOutcome{
		{Res: AnchorResult{Packet: 2, Encoded: []byte("enhanced-a")}},
		{Res: AnchorResult{Packet: 7}, Err: errors.New("enhancer unavailable")},
		{Res: AnchorResult{Packet: 9, Encoded: []byte("enhanced-b")}},
	}
	enc := batchResultPayload(outs)
	got, err := DecodeAnchorBatchResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(outs) {
		t.Fatalf("outcome count = %d, want %d", len(got), len(outs))
	}
	for i := range outs {
		if got[i].Res.Packet != outs[i].Res.Packet || errText(got[i].Err) != errText(outs[i].Err) ||
			!bytes.Equal(got[i].Res.Encoded, outs[i].Res.Encoded) {
			t.Errorf("outcome %d = %+v, want %+v", i, got[i], outs[i])
		}
	}
	// One over-long error message is cut to the field width; it must not
	// void the frame and with it the siblings' results.
	outs[1].Err = errors.New(strings.Repeat("x", 70<<10))
	got, err = DecodeAnchorBatchResult(batchResultPayload(outs))
	if err != nil || len(got) != 3 {
		t.Fatalf("batch with a 70 KB error: %d outcomes, err %v", len(got), err)
	}
	if got[1].Err == nil || len(got[1].Err.Error()) != 0xFFFF {
		t.Errorf("middle outcome error = %d bytes, want it cut to %d", len(errText(got[1].Err)), 0xFFFF)
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil || !bytes.Equal(got[i].Res.Encoded, outs[i].Res.Encoded) {
			t.Errorf("sibling %d of the long error = %+v, want its result intact", i, got[i])
		}
	}
	for _, bad := range [][]byte{{9}, {0, 0, 0, 1, 0, 0, 0, 1, 0}, {0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 'x', 0, 0, 0, 5}} {
		if _, err := DecodeAnchorBatchResult(bad); err == nil {
			t.Errorf("malformed batch result %v accepted", bad)
		}
	}
	if _, err := DecodeAnchorBatchResult(append(enc, 1)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestReadPooledRecyclesPayloads(t *testing.T) {
	var pool par.SlabPool[byte]
	var buf bytes.Buffer
	payload := []byte("chunk bytes that should land in a pooled buffer")
	if err := Write(&buf, Message{Type: TypeChunk, StreamID: 3, Seq: 8, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadPooled(&buf, DefaultMaxPayload, &pool)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeChunk || m.StreamID != 3 || m.Seq != 8 || !bytes.Equal(m.Payload, payload) {
		t.Errorf("pooled read = %+v", m)
	}
	pool.Put(m.Payload)
	// The recycled buffer must be reused (capacity permitting) and the
	// stale contents fully overwritten by the next read.
	if err := Write(&buf, Message{Type: TypeAck, Seq: 9, Payload: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadPooled(&buf, DefaultMaxPayload, &pool)
	if err != nil {
		t.Fatal(err)
	}
	if string(m2.Payload) != "ok" {
		t.Errorf("recycled payload = %q, want %q", m2.Payload, "ok")
	}
	// Corrupt frames must not leak the borrowed buffer (Put is internal);
	// just assert the error surfaces.
	bad := buf
	if err := Write(&bad, Message{Type: TypeChunk, Payload: []byte("xyz")}); err != nil {
		t.Fatal(err)
	}
	raw := bad.Bytes()
	raw[len(raw)-1] ^= 0xFF
	if _, err := ReadPooled(bytes.NewReader(raw), DefaultMaxPayload, &pool); !errors.Is(err, ErrBadFrame) {
		t.Errorf("corrupt pooled read err = %v, want ErrBadFrame", err)
	}
}

func TestDecodeChunkAlias(t *testing.T) {
	packets := [][]byte{[]byte("first"), {}, []byte("third packet")}
	payload := EncodeChunk(packets)
	got, err := DecodeChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(packets) {
		t.Fatalf("packet count = %d, want %d", len(got), len(packets))
	}
	for i := range packets {
		if !bytes.Equal(got[i], packets[i]) {
			t.Errorf("packet %d = %q, want %q", i, got[i], packets[i])
		}
	}
	// Aliasing: mutating the payload must show through the packets, and
	// full-capacity slices must not allow appends to clobber neighbors.
	if len(got[0]) > 0 {
		payload[8] ^= 0xFF // first byte of packet 0's body
		if bytes.Equal(got[0], packets[0]) {
			t.Error("DecodeChunk copied instead of aliasing")
		}
		payload[8] ^= 0xFF
	}
	if cap(got[0]) != len(got[0]) {
		t.Error("aliased packet capacity not clipped; appends would clobber the payload")
	}
	if _, err := DecodeChunk([]byte{0, 0}); err == nil {
		t.Error("truncated chunk accepted")
	}
}

// TestDeadlineFrameRoundTrip pins the header's budget field: a positive
// budget survives Write/Read, and a zero budget reads back as none.
func TestDeadlineFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Type: TypeChunk, StreamID: 9, Seq: 4, Payload: []byte("abc"), Budget: 1500 * time.Millisecond}
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Budget != in.Budget {
		t.Errorf("budget = %v, want %v", got.Budget, in.Budget)
	}
	if got.Type != in.Type || got.StreamID != in.StreamID || got.Seq != in.Seq || !bytes.Equal(got.Payload, in.Payload) {
		t.Errorf("frame mismatch: %+v vs %+v", got, in)
	}

	// Sub-microsecond budgets round up to the 1µs floor instead of
	// degrading to "no deadline".
	var tiny bytes.Buffer
	if err := Write(&tiny, Message{Type: TypeAck, Budget: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(&tiny, DefaultMaxPayload); err != nil || got.Budget != time.Microsecond {
		t.Errorf("tiny budget = %v, %v; want 1µs", got.Budget, err)
	}

	var zero bytes.Buffer
	if err := Write(&zero, Message{Type: TypeChunk, StreamID: 9, Seq: 4, Payload: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(&zero, DefaultMaxPayload); err != nil || got.Budget != 0 {
		t.Errorf("zero budget = %v, %v; want none", got.Budget, err)
	}
}

// countingReader counts the Read calls that reach r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestBudgetedFrameReadsTwice pins that a header is one read, budget
// included: a budgeted frame costs an unbuffered reader two reads, the
// header and the payload.
func TestBudgetedFrameReadsTwice(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Message{Type: TypeChunk, Payload: []byte("abc"), Budget: time.Second}); err != nil {
		t.Fatal(err)
	}
	cr := &countingReader{r: &buf}
	if _, err := Read(cr, DefaultMaxPayload); err != nil || cr.reads != 2 {
		t.Errorf("a budgeted frame took %d reads (err %v), want 2", cr.reads, err)
	}
}

// TestDeadlineFramePooledAndTruncated covers ReadPooled on a budgeted
// frame and the error cases: a header cut inside its budget field and a
// budget past what a Duration holds (which only a buggy or malicious
// writer can produce) are rejected without leaking pooled payloads.
func TestDeadlineFramePooledAndTruncated(t *testing.T) {
	var buf bytes.Buffer
	in := Message{Type: TypeAnchorBatchJob, StreamID: 1, Seq: 7, Payload: []byte("payload"), Budget: 250 * time.Microsecond}
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)

	var pool par.SlabPool[byte]
	got, err := ReadPooled(bytes.NewReader(full), DefaultMaxPayload, &pool)
	if err != nil {
		t.Fatal(err)
	}
	if got.Budget != in.Budget || !bytes.Equal(got.Payload, in.Payload) {
		t.Errorf("pooled budgeted read mismatch: %+v", got)
	}
	pool.Put(got.Payload)

	// Truncate inside the budget field: the reader must error, not
	// misparse the remaining bytes as a payload.
	if _, err := Read(bytes.NewReader(full[:14]), DefaultMaxPayload); err == nil {
		t.Error("truncated budget field accepted")
	}

	overflow := append([]byte(nil), full...)
	binary.BigEndian.PutUint64(overflow[11:], maxBudgetMicros+1)
	if _, err := ReadPooled(bytes.NewReader(overflow), DefaultMaxPayload, &pool); !errors.Is(err, ErrBadFrame) {
		t.Errorf("overflowing budget: err = %v, want ErrBadFrame", err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("refused frames left %d payload buffers borrowed", n)
	}
}
