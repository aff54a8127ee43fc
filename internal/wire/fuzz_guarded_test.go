//go:build fuzz

package wire

import (
	"bytes"
	"hash/crc32"
	"net"
	"testing"
	"time"
)

// FuzzWireFrame is the structured complement to FuzzRead: it builds a
// frame from fuzzed fields — including the budget — writes it, and requires the reader to hand back exactly the same message,
// including the maxPayload boundary (a frame at the limit parses; one
// past it must be rejected, never mis-framed). Non-empty payloads are
// also re-emitted through Conn.WriteShared at a fuzzed prefix/tail split
// (the edge fanout path), and payloads that parse as chunk data through
// Conn.WriteChunkData (the origin's fetch reply), on both Conn transports;
// each must be byte-identical to Write. Guarded behind the fuzz build tag
// for the fuzz smoke job.
func FuzzWireFrame(f *testing.F) {
	type conn struct {
		name string
		c    *Conn
		peer net.Conn
	}
	var conns []conn
	for _, tr := range frameTransports {
		c, peer := tr.conns(f)
		conns = append(conns, conn{tr.name, c, peer})
	}
	// Every assigned type's seed frame, every other one with a budget.
	for i, m := range seedFrames() {
		f.Add(uint8(m.Type), m.StreamID, m.Seq, uint64(i%2)*250_000, m.Payload)
	}
	f.Add(uint8(255), uint32(0), uint32(0), uint64(1500), []byte{})
	f.Fuzz(func(t *testing.T, typ uint8, streamID, seq uint32, budgetMicros uint64, payload []byte) {
		if budgetMicros > uint64(1<<62)/uint64(time.Microsecond) {
			budgetMicros %= 1 << 40
		}
		m := Message{
			Type: Type(typ), StreamID: streamID, Seq: seq, Payload: payload,
			Budget: time.Duration(budgetMicros) * time.Microsecond,
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			// Oversize or otherwise unwritable frames are fine as long as
			// nothing hit the wire.
			if buf.Len() != 0 {
				t.Fatalf("failed Write left %d bytes on the wire", buf.Len())
			}
			return
		}
		wireBytes := append([]byte(nil), buf.Bytes()...)

		back, err := Read(bytes.NewReader(wireBytes), len(payload))
		if err != nil {
			t.Fatalf("read of own frame (maxPayload=len): %v", err)
		}
		if back.Type != m.Type || back.StreamID != m.StreamID || back.Seq != m.Seq ||
			back.Budget != m.Budget || !bytes.Equal(back.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: wrote %+v, read %+v", m, back)
		}

		if len(payload) > 0 {
			if _, err := Read(bytes.NewReader(wireBytes), len(payload)-1); err == nil {
				t.Fatalf("frame with %d-byte payload accepted under maxPayload=%d", len(payload), len(payload)-1)
			}

			// A Conn bounds a frame's write by its budget, so a frame with a
			// budget this short may rightly not be written at all.
			if m.Budget > 0 && m.Budget < 50*time.Millisecond {
				return
			}
			// The fanout writer must be indistinguishable on the wire from a
			// plain Write for every prefix/tail split.
			cut := int(seq) % (len(payload) + 1)
			shared := m
			shared.Payload = nil
			for _, cn := range conns {
				got := written(t, cn.c, cn.peer, len(wireBytes), func(c *Conn) error {
					return c.WriteShared(shared, payload[:cut], payload[cut:], crc32.ChecksumIEEE(payload[:cut]))
				})
				if !bytes.Equal(got, wireBytes) {
					t.Fatalf("%s: WriteShared(cut=%d) bytes differ from Write", cn.name, cut)
				}
			}

			cd, err := DecodeChunkDataAlias(payload)
			if err != nil {
				return
			}
			var want bytes.Buffer
			ref := shared
			ref.Payload = EncodeChunkData(cd)
			if err := Write(&want, ref); err != nil {
				t.Fatal(err)
			}
			for _, cn := range conns {
				got := written(t, cn.c, cn.peer, want.Len(), func(c *Conn) error { return c.WriteChunkData(shared, cd) })
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s: WriteChunkData bytes differ from Write(EncodeChunkData)", cn.name)
				}
			}
		}
	})
}
