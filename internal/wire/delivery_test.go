package wire

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
	"time"
)

func TestFetchChunkRoundTrip(t *testing.T) {
	f := FetchChunk{Seq: 0xDEADBEEF, Quality: 3}
	got, err := DecodeFetchChunk(AppendFetchChunk(nil, f))
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Errorf("round trip = %+v, want %+v", got, f)
	}
	for _, bad := range [][]byte{nil, {1, 2, 3, 4}, {1, 2, 3, 4, 5, 6}} {
		if _, err := DecodeFetchChunk(bad); err == nil {
			t.Errorf("malformed fetch-chunk %v accepted", bad)
		}
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	s := Subscribe{FromSeq: 41, Quality: 1}
	got, err := DecodeSubscribe(EncodeSubscribe(s))
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip = %+v, want %+v", got, s)
	}
	if _, err := DecodeSubscribe([]byte{9}); err == nil {
		t.Error("malformed subscribe accepted")
	}
}

func TestChunkDataRoundTrip(t *testing.T) {
	for _, c := range []ChunkData{
		{Seq: 12, Quality: 0, Data: []byte("container bytes")},
		{Seq: 0, Quality: 2, Data: nil, Degraded: true},
		{Seq: 7, Quality: 1, Data: []byte("x"), Degraded: true, CacheHit: true},
	} {
		enc := EncodeChunkData(c)
		got, err := DecodeChunkData(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != c.Seq || got.Quality != c.Quality || got.Degraded != c.Degraded ||
			got.CacheHit != c.CacheHit || !bytes.Equal(got.Data, c.Data) {
			t.Errorf("round trip = %+v, want %+v", got, c)
		}
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, {0, 0, 0, 1, 0, 0, 0, 0, 5, 0}} {
		if _, err := DecodeChunkData(bad); err == nil {
			t.Errorf("malformed chunk-data %v accepted", bad)
		}
	}
	// Truncating the data body must be caught by the length check.
	enc := EncodeChunkData(ChunkData{Seq: 1, Data: []byte("abcdef")})
	if _, err := DecodeChunkData(enc[:len(enc)-2]); err == nil {
		t.Error("length-mismatched chunk-data accepted")
	}
}

// TestChunkDataPrefixSharing pins the zero-copy fanout contract: the
// prefix of an encoded payload is delivery-invariant (only the trailing
// flags byte differs between a miss and a cache hit), the alias decode
// does not copy, and its capacity is clipped so appends cannot clobber
// the flags byte.
func TestChunkDataPrefixSharing(t *testing.T) {
	miss := EncodeChunkData(ChunkData{Seq: 5, Data: []byte("shared body")})
	hit := EncodeChunkData(ChunkData{Seq: 5, Data: []byte("shared body"), CacheHit: true})
	if !bytes.Equal(miss[:len(miss)-1], hit[:len(hit)-1]) {
		t.Fatal("hit and miss encodings differ outside the trailing flags byte")
	}
	prefix, flags, err := ChunkDataPrefix(hit)
	if err != nil {
		t.Fatal(err)
	}
	if flags != ChunkDataFlags(false, true) {
		t.Errorf("flags = %#x, want cache-hit bit", flags)
	}
	if &prefix[0] != &hit[0] {
		t.Error("ChunkDataPrefix copied instead of aliasing")
	}
	got, err := DecodeChunkDataAlias(hit)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) > 0 && &got.Data[0] != &hit[9] {
		t.Error("DecodeChunkDataAlias copied instead of aliasing")
	}
	if cap(got.Data) != len(got.Data) {
		t.Error("aliased data capacity not clipped")
	}
}

// TestWriteSharedMatchesWrite pins every frame a Conn writes to the bytes
// of the package-level Write of the same Message, on both transports (one
// writev, or one Write per part), with and without a budget: Conn.Write;
// Conn.WriteShared for any split of the payload into prefix+tail with the
// precomputed prefix CRC (the edge's hit path); Conn.WriteChunkData
// against EncodeChunkData (the origin's fetch reply); and empty payloads,
// written with no parts and with empty ones.
func TestWriteSharedMatchesWrite(t *testing.T) {
	container := []byte("the cached container")
	payload := EncodeChunkData(ChunkData{Seq: 3, Data: container})
	for _, tr := range frameTransports {
		t.Run(tr.name, func(t *testing.T) {
			c, peer := tr.conns(t)
			expect := func(what string, want Message, write func(*Conn) error) {
				t.Helper()
				var ref bytes.Buffer
				if err := Write(&ref, want); err != nil {
					t.Fatal(err)
				}
				if got := written(t, c, peer, ref.Len(), write); !bytes.Equal(got, ref.Bytes()) {
					t.Fatalf("%s: bytes differ from Write\n got % x\nwant % x", what, got, ref.Bytes())
				}
			}
			for _, budget := range []time.Duration{0, 750 * time.Millisecond} {
				m := Message{Type: TypeChunkData, StreamID: 11, Seq: 42, Budget: budget}
				full := m
				full.Payload = payload
				expect(fmt.Sprintf("Write, budget %v", budget), full, func(c *Conn) error { return c.Write(full) })
				for _, cut := range []int{0, 1, len(payload) - 1, len(payload)} {
					prefix, tail := payload[:cut], payload[cut:]
					expect(fmt.Sprintf("WriteShared cut %d, budget %v", cut, budget), full, func(c *Conn) error {
						return c.WriteShared(m, prefix, tail, crc32.ChecksumIEEE(prefix))
					})
				}
				for _, cd := range []ChunkData{
					{Seq: 3, Data: container},
					{Seq: 9, Quality: 2, Data: container, Degraded: true, CacheHit: true},
					{Seq: 1, Degraded: true},
				} {
					want := m
					want.Payload = EncodeChunkData(cd)
					expect(fmt.Sprintf("WriteChunkData %+v, budget %v", cd, budget), want, func(c *Conn) error {
						return c.WriteChunkData(m, cd)
					})
				}
				empty := Message{Type: TypePing, Seq: 7, Budget: budget}
				expect("empty Write", empty, func(c *Conn) error { return c.Write(empty) })
				expect("empty WriteShared", empty, func(c *Conn) error { return c.WriteShared(empty, nil, nil, 0) })
				expect("empty parts", empty, func(c *Conn) error { return c.WriteShared(empty, []byte{}, []byte{}, 0) })
			}
			// A frame after the last one starts where Write says it does:
			// no frame above left a stray byte behind.
			expect("sentinel", Message{Type: TypeGoodbye}, func(c *Conn) error { return c.Write(Message{Type: TypeGoodbye}) })
		})
	}
}

// TestDeliveryFrameBudgetRoundTrip pins the budget field on the delivery
// frame types: fetches and pushes carry their remaining budget
// across the edge hop exactly like ingest chunks do.
func TestDeliveryFrameBudgetRoundTrip(t *testing.T) {
	cases := []Message{
		{Type: TypeFetchChunk, StreamID: 2, Seq: 9, Payload: AppendFetchChunk(nil, FetchChunk{Seq: 4}), Budget: 120 * time.Millisecond},
		{Type: TypeChunkData, StreamID: 2, Seq: 9, Payload: EncodeChunkData(ChunkData{Seq: 4, Data: []byte("c")}), Budget: 80 * time.Millisecond},
		{Type: TypeSubscribe, StreamID: 2, Seq: 1, Payload: EncodeSubscribe(Subscribe{FromSeq: 0}), Budget: time.Second},
	}
	for _, in := range cases {
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf, DefaultMaxPayload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != in.Type || got.Budget != in.Budget || !bytes.Equal(got.Payload, in.Payload) {
			t.Errorf("%v round trip = %+v, want %+v", in.Type, got, in)
		}
	}
	if TypeFetchChunk.String() != "fetch-chunk" || TypeChunkData.String() != "chunk-data" ||
		TypeSubscribe.String() != "subscribe" {
		t.Errorf("stringer: %v %v %v", TypeFetchChunk, TypeChunkData, TypeSubscribe)
	}
}
