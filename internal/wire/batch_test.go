package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
)

// lyingFrame is a raw-frame payload whose header claims 4096×4096 but
// whose body is three bytes.
var lyingFrame = []byte{0x10, 0x00, 0x10, 0x00, 1, 2, 3}

// lyingBatchJob is a 27-byte anchor batch of one job carrying lyingFrame.
var lyingBatchJob = func() []byte {
	b := binary.BigEndian.AppendUint32(nil, 1)
	b = binary.BigEndian.AppendUint32(b, uint32(12+len(lyingFrame)))
	b = binary.BigEndian.AppendUint32(b, 5)  // packet
	b = binary.BigEndian.AppendUint32(b, 5)  // display index
	b = binary.BigEndian.AppendUint32(b, 85) // QP
	return append(b, lyingFrame...)
}()

// patterned is a w×h frame with distinct samples in every plane. With
// pad > 0 its planes have a stride pad bytes wider than the plane, the
// shape of a view into a larger picture.
func patterned(w, h, pad int) *frame.Frame {
	f := frame.MustNew(w, h)
	for pi, p := range f.Planes() {
		if pad > 0 {
			*p = frame.Plane{W: p.W, H: p.H, Stride: p.W + pad, Pix: make([]byte, (p.W+pad)*p.H)}
		}
		for i := range p.Pix {
			p.Pix[i] = byte(i*7 + pi*31 + w)
		}
	}
	return f
}

// batchFixtures are the job and result batches the vectored-frame tests
// send: mixed geometries (odd sizes, a strided frame whose planes go out
// row by row), an error outcome, and zero-length anchors.
func batchFixtures() ([]AnchorJob, []AnchorOutcome) {
	jobs := []AnchorJob{
		{Packet: 0, DisplayIndex: 3, QP: 85, Frame: patterned(16, 16, 0)},
		{Packet: 4, DisplayIndex: 11, QP: 95, Frame: patterned(17, 9, 0)},
		{Packet: 7, DisplayIndex: 12, QP: 100, Frame: patterned(10, 6, 5)},
	}
	outs := []AnchorOutcome{
		{Res: AnchorResult{Packet: 0, Encoded: bytes.Repeat([]byte{0xA5}, 300)}},
		{Res: AnchorResult{Packet: 4}, Err: errors.New("enhancer: deadline exceeded")},
		{Res: AnchorResult{Packet: 7, Encoded: []byte{}}},
		{Res: AnchorResult{Packet: 9, Encoded: []byte{1, 2, 3}}},
	}
	return jobs, outs
}

// TestAnchorBatchPartsMatchWrite pins the vectored anchor RPC to the
// copying one: a job batch and a result batch laid out on a Vec and sent
// with Conn.WriteParts (the replica's reply) or Mux.CallParts (the
// origin's request) are byte-identical to Write of the joined payload, on
// both transports, with and without a budget. The joined payloads decode
// back to what was sent.
func TestAnchorBatchPartsMatchWrite(t *testing.T) {
	jobs, outs := batchFixtures()
	var jv, rv Vec
	jv.PutAnchorBatchJob(jobs)
	rv.PutAnchorBatchResult(outs)
	jobPayload, resPayload := joinParts(&jv), joinParts(&rv)
	if jv.Len() != len(jobPayload) || rv.Len() != len(resPayload) {
		t.Fatalf("Vec lengths %d and %d, joined %d and %d", jv.Len(), rv.Len(), len(jobPayload), len(resPayload))
	}
	back, err := DecodeAnchorBatchJob(jobPayload)
	if err != nil || len(back) != len(jobs) {
		t.Fatalf("decode jobs: %d, %v", len(back), err)
	}
	for i, j := range back {
		if j.Packet != jobs[i].Packet || j.DisplayIndex != jobs[i].DisplayIndex || j.QP != jobs[i].QP {
			t.Errorf("job %d fields = %+v, want %+v", i, j, jobs[i])
		}
		for pi, p := range j.Frame.Planes() {
			want := jobs[i].Frame.Planes()[pi]
			for y := 0; y < p.H; y++ {
				if !bytes.Equal(p.Row(y), want.Row(y)) {
					t.Fatalf("job %d plane %d row %d differs after the round trip", i, pi, y)
				}
			}
		}
	}
	if got, err := DecodeAnchorBatchResult(resPayload); err != nil || len(got) != len(outs) || got[1].Err == nil {
		t.Fatalf("decode results: %+v, %v", got, err)
	}

	for _, tr := range frameTransports {
		t.Run(tr.name, func(t *testing.T) {
			c, peer := tr.conns(t)
			for _, budget := range []time.Duration{0, 750 * time.Millisecond} {
				for _, tc := range []struct {
					typ     Type
					v       *Vec
					payload []byte
				}{
					{TypeAnchorBatchJob, &jv, jobPayload},
					{TypeAnchorBatchResult, &rv, resPayload},
				} {
					m := Message{Type: tc.typ, StreamID: 6, Seq: 21, Budget: budget}
					want := m
					want.Payload = tc.payload
					var ref bytes.Buffer
					if err := Write(&ref, want); err != nil {
						t.Fatal(err)
					}
					got := written(t, c, peer, ref.Len(), func(c *Conn) error { return c.WriteParts(m, tc.v.Parts()...) })
					if !bytes.Equal(got, ref.Bytes()) {
						t.Fatalf("%v, budget %v: WriteParts bytes differ from Write", tc.typ, budget)
					}
				}
			}
		})
	}

	// The origin's side: a Mux call whose request is the job Vec's parts.
	a, b := net.Pipe()
	mux := NewMux(NewConn(a, 0, testTimeout), nil, nil)
	defer mux.Close()
	type result struct {
		reply Message
		err   error
	}
	done := make(chan result, 1)
	go func() {
		reply, err := mux.CallParts(Message{Type: TypeAnchorBatchJob, StreamID: 6, Budget: time.Second}, testTimeout, jv.Parts()...)
		done <- result{reply, err}
	}()
	_ = b.SetDeadline(time.Now().Add(testTimeout))
	req, err := Read(b, DefaultMaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	if req.Type != TypeAnchorBatchJob || req.Seq == 0 || !bytes.Equal(req.Payload, jobPayload) {
		t.Fatalf("CallParts sent %v seq %d with a %d-byte payload, want the %d-byte job payload",
			req.Type, req.Seq, len(req.Payload), len(jobPayload))
	}
	if err := Write(b, Message{Type: TypeAnchorBatchResult, StreamID: 6, Seq: req.Seq, Payload: resPayload}); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || !bytes.Equal(r.reply.Payload, resPayload) {
		t.Fatalf("CallParts reply: %v", r.err)
	}
	go func() { _, _ = io.Copy(io.Discard, b) }() // the goodbye Close sends
}

// TestVecReset checks that a reused Vec lays out its next payload from
// scratch and drops the bodies of the last one.
func TestVecReset(t *testing.T) {
	jobs, outs := batchFixtures()
	var v Vec
	v.PutAnchorBatchJob(jobs)
	v.Reset()
	if v.Len() != 0 || len(v.Parts()) != 0 {
		t.Fatalf("reset Vec holds %d bytes in %d parts", v.Len(), len(v.Parts()))
	}
	for i, b := range v.bodies[:cap(v.bodies)] {
		if b != nil {
			t.Fatalf("reset Vec still references body %d", i)
		}
	}
	v.PutAnchorBatchResult(outs)
	if !bytes.Equal(joinParts(&v), batchResultPayload(outs)) {
		t.Fatal("reused Vec does not join to a fresh one's payload")
	}
}

// TestDecodeFrameRefusesLyingHeader: a frame header is untrusted. A job
// that claims a 4096×4096 frame but carries three bytes of it — or any
// size up to 65535² — is refused before a frame is borrowed, so it costs
// the replica under 1 KB instead of the claimed frame.
func TestDecodeFrameRefusesLyingHeader(t *testing.T) {
	if len(lyingBatchJob) != 27 {
		t.Fatalf("fixture is %d bytes, want 27", len(lyingBatchJob))
	}
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"frame 4096x4096", func() error { _, err := decodeFrame(lyingFrame); return err }},
		{"frame 65535x65535", func() error { _, err := decodeFrame(huge); return err }},
		{"batch job", func() error { _, err := DecodeAnchorBatchJob(lyingBatchJob); return err }},
	} {
		var err error
		n := heapBytes(func() { err = tc.decode() })
		if err == nil {
			t.Errorf("%s: lying header accepted", tc.name)
		}
		if n >= 1024 {
			t.Errorf("%s: refusing the payload allocated %d B, want under 1 KB", tc.name, n)
		}
	}
}

// heapBytes is the heap bytes f allocates, with the collector off so the
// count is not blurred by a cycle.
func heapBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// ExampleVec shows a batch of one job laid out as the parts of its frame.
func ExampleVec() {
	var v Vec
	v.PutAnchorBatchJob([]AnchorJob{{Packet: 2, DisplayIndex: 2, QP: 85, Frame: frame.MustNew(4, 2)}})
	for _, p := range v.Parts() {
		fmt.Println(len(p))
	}
	// Output:
	// 24
	// 8
	// 2
	// 2
}
