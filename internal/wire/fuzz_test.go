package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
)

// FuzzRead exercises the frame parser with arbitrary bytes; it must
// never panic and must round-trip anything Write produced. ReadPooled
// must accept and refuse exactly what Read does, return the same
// message, and leave nothing borrowed from its pool when it refuses.
// The seeds are one frame of every assigned type, with and without a
// budget.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	for _, m := range seedFrames() {
		for _, budget := range []time.Duration{0, 250 * time.Millisecond} {
			m.Budget = budget
			seed.Reset()
			_ = Write(&seed, m)
			f.Add(bytes.Clone(seed.Bytes()))
		}
	}
	f.Add([]byte{})
	// A header cut short, and one that promises more payload than follows.
	f.Add([]byte{0x4E, 0x57, 1, 0, 0, 0, 0})
	f.Add(seed.Bytes()[:seed.Len()-2])
	var pool par.SlabPool[byte]
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data), 1<<20)
		before := pool.Outstanding()
		pm, perr := ReadPooled(bytes.NewReader(data), 1<<20, &pool)
		if (err == nil) != (perr == nil) {
			t.Fatalf("Read err %v, ReadPooled err %v", err, perr)
		}
		if err != nil {
			if n := pool.Outstanding() - before; n != 0 {
				t.Fatalf("refused frame left %d payload buffers borrowed", n)
			}
			return
		}
		if pm.Type != m.Type || pm.StreamID != m.StreamID || pm.Seq != m.Seq || pm.Budget != m.Budget ||
			!bytes.Equal(pm.Payload, m.Payload) {
			t.Fatal("ReadPooled returned a different message than Read")
		}
		pool.Put(pm.Payload)
		// Anything that parsed must re-serialize to an equivalent frame.
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write of parsed message failed: %v", err)
		}
		back, err := Read(&buf, 1<<20)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if back.Type != m.Type || back.StreamID != m.StreamID || back.Seq != m.Seq ||
			!bytes.Equal(back.Payload, m.Payload) {
			t.Fatal("write/read not idempotent")
		}
	})
}

// FuzzDecodeHello exercises the hello payload parser: whatever it
// accepts encodes back to the same bytes.
func FuzzDecodeHello(f *testing.F) {
	good, _ := EncodeHello(Hello{Content: "lol", Scale: 3})
	f.Add(good)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		if back, err := EncodeHello(h); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("hello round trip diverged: %v", err)
		}
	})
}

// FuzzDecodeChunk exercises the chunk payload parser.
func FuzzDecodeChunk(f *testing.F) {
	f.Add(EncodeChunk([][]byte{{1, 2}, {}, {3}}))
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := DecodeChunk(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeChunk(pkts), data) {
			t.Fatal("chunk round trip diverged")
		}
	})
}

// FuzzDecodeFrame exercises the raw-frame payload parser, from a header
// that lies about the frame's size among others.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{0, 2, 0, 2, 1, 2, 3, 4, 5, 6})
	f.Add(lyingFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeFrame(data) // must not panic
	})
}

// FuzzDecodeAnchorBatchJob exercises the batched anchor-job parser, from
// a job whose frame header lies about its size among others.
func FuzzDecodeAnchorBatchJob(f *testing.F) {
	f.Add(lyingBatchJob)
	f.Add(batchJobPayload([]AnchorJob{
		{Packet: 0, DisplayIndex: 3, QP: 80, Frame: frame.MustNew(16, 16)},
		{Packet: 4, DisplayIndex: 11, QP: 95, Frame: frame.MustNew(24, 8)},
	}))
	f.Add([]byte{0, 0, 0, 2})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := DecodeAnchorBatchJob(data)
		if err != nil {
			return
		}
		if !bytes.Equal(batchJobPayload(jobs), data) {
			t.Fatal("anchor batch job round trip diverged")
		}
	})
}

// FuzzDecodeAnchorBatchResult exercises the batched outcome parser.
func FuzzDecodeAnchorBatchResult(f *testing.F) {
	f.Add(batchResultPayload([]AnchorOutcome{
		{Res: AnchorResult{Packet: 1, Encoded: []byte{9}}},
		{Res: AnchorResult{Packet: 4}, Err: errors.New("enhancer: deadline exceeded")},
		{Res: AnchorResult{Packet: 6, Encoded: []byte{7, 7}}},
	}))
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		outs, err := DecodeAnchorBatchResult(data)
		if err != nil {
			return
		}
		if !bytes.Equal(batchResultPayload(outs), data) {
			t.Fatal("anchor batch result round trip diverged")
		}
	})
}

// FuzzDecodeFetchChunk exercises the fetch-request payload parser.
func FuzzDecodeFetchChunk(f *testing.F) {
	f.Add(AppendFetchChunk(nil, FetchChunk{Seq: 3, Quality: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeFetchChunk(data)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendFetchChunk(nil, req), data) {
			t.Fatal("fetch-chunk round trip diverged")
		}
	})
}

// FuzzDecodeSubscribe exercises the subscribe payload parser.
func FuzzDecodeSubscribe(f *testing.F) {
	f.Add(EncodeSubscribe(Subscribe{FromSeq: 12, Quality: 2}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, err := DecodeSubscribe(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSubscribe(sub), data) {
			t.Fatal("subscribe round trip diverged")
		}
	})
}

// FuzzDecodeChunkData exercises the chunk-data payload parser.
func FuzzDecodeChunkData(f *testing.F) {
	f.Add(EncodeChunkData(ChunkData{Seq: 8, Quality: 1, Data: []byte("container"), Degraded: true, CacheHit: true}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunkData(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeChunkData(c), data) {
			t.Fatal("chunk-data round trip diverged")
		}
	})
}
