package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
)

// joinParts returns v's payload as one buffer.
func joinParts(v *Vec) []byte { return bytes.Join(v.Parts(), nil) }

// batchJobPayload is the TypeAnchorBatchJob payload of jobs.
func batchJobPayload(jobs []AnchorJob) []byte {
	var v Vec
	v.PutAnchorBatchJob(jobs)
	return joinParts(&v)
}

// batchResultPayload is the TypeAnchorBatchResult payload of outs.
func batchResultPayload(outs []AnchorOutcome) []byte {
	var v Vec
	v.PutAnchorBatchResult(outs)
	return joinParts(&v)
}

// typeSeed is one valid payload of a message type, made by the type's
// encoder, and reencode, which decodes a payload of that type with the
// type's decoder and encodes the result again.
type typeSeed struct {
	payload  []byte
	reencode func([]byte) ([]byte, error)
}

// typeSeeds holds a seed for every assigned type; the fuzz targets over
// whole frames start from them. TestTypeTable fails for an assigned type
// without one, so no type ships without a payload that round-trips.
func typeSeeds() map[Type]typeSeed {
	hello, err := EncodeHello(Hello{
		Config: vcodec.Config{Width: 96, Height: 64, FPS: 30, BitrateKbps: 700, GOP: 12, Mode: vcodec.ModeConstrainedVBR},
		Scale:  3, Model: sr.HighQuality(), Content: "lol", Priority: 2,
	})
	if err != nil {
		panic(err)
	}
	jobs, outs := batchFixtures()
	// bare payloads carry no structure: any bytes are one.
	bare := func(p []byte) ([]byte, error) { return p, nil }
	return map[Type]typeSeed{
		TypeHello: {hello, func(p []byte) ([]byte, error) {
			h, err := DecodeHello(p)
			if err != nil {
				return nil, err
			}
			return EncodeHello(h)
		}},
		TypeChunk: {EncodeChunk([][]byte{{1, 2, 3}, {}, {0xFF}}), func(p []byte) ([]byte, error) {
			pkts, err := DecodeChunk(p)
			if err != nil {
				return nil, err
			}
			return EncodeChunk(pkts), nil
		}},
		TypeAck:     {nil, bare},
		TypeError:   {ErrorReply(Message{}, errors.New("media: no such chunk")).Payload, bare},
		TypeGoodbye: {nil, bare},
		TypePing:    {nil, bare},
		TypePong:    {nil, bare},
		TypeAnchorBatchJob: {batchJobPayload(jobs), func(p []byte) ([]byte, error) {
			jobs, err := DecodeAnchorBatchJob(p)
			if err != nil {
				return nil, err
			}
			defer ReleaseFrames(jobs)
			return batchJobPayload(jobs), nil
		}},
		TypeAnchorBatchResult: {batchResultPayload(outs), func(p []byte) ([]byte, error) {
			outs, err := DecodeAnchorBatchResult(p)
			if err != nil {
				return nil, err
			}
			return batchResultPayload(outs), nil
		}},
		TypeFetchChunk: {AppendFetchChunk(nil, FetchChunk{Seq: 8, Quality: 1}), func(p []byte) ([]byte, error) {
			f, err := DecodeFetchChunk(p)
			if err != nil {
				return nil, err
			}
			return AppendFetchChunk(nil, f), nil
		}},
		TypeChunkData: {EncodeChunkData(ChunkData{Seq: 8, Data: []byte("container"), CacheHit: true}), func(p []byte) ([]byte, error) {
			c, err := DecodeChunkData(p)
			if err != nil {
				return nil, err
			}
			return EncodeChunkData(c), nil
		}},
		TypeSubscribe: {EncodeSubscribe(Subscribe{FromSeq: 4, Quality: 1}), func(p []byte) ([]byte, error) {
			s, err := DecodeSubscribe(p)
			if err != nil {
				return nil, err
			}
			return EncodeSubscribe(s), nil
		}},
	}
}

// seedFrames is one valid frame per assigned type, carrying its seed
// payload, in type order.
func seedFrames() []Message {
	seeds := typeSeeds()
	var msgs []Message
	for typ := Type(1); typ.valid(); typ++ {
		msgs = append(msgs, Message{Type: typ, StreamID: 3, Seq: uint32(typ), Payload: seeds[typ].payload})
	}
	return msgs
}

// TestTypeTable walks every Type value. A value is assigned exactly when
// typeNames names it, and valid and String agree with the table. Every
// assigned type has a seed payload that comes back byte for byte through
// Write, Read and the type's decoder and encoder; no other value has one.
func TestTypeTable(t *testing.T) {
	seeds := typeSeeds()
	for v := 0; v <= 255; v++ {
		typ := Type(v)
		named := v < len(typeNames) && typeNames[v] != ""
		if typ.valid() != named {
			t.Errorf("Type(%d).valid() = %v, but typeNames naming it is %v", v, typ.valid(), named)
		}
		seed, seeded := seeds[typ]
		if !named {
			if want := fmt.Sprintf("Type(%d)", v); typ.String() != want {
				t.Errorf("Type(%d).String() = %q, want %q", v, typ.String(), want)
			}
			if seeded {
				t.Errorf("Type(%d) has a seed payload but no entry in typeNames", v)
			}
			continue
		}
		if typ.String() != typeNames[v] {
			t.Errorf("Type(%d).String() = %q, want %q", v, typ.String(), typeNames[v])
		}
		if !seeded {
			t.Errorf("%v has no seed payload in typeSeeds", typ)
			continue
		}
		for _, budget := range []time.Duration{0, time.Second} {
			in := Message{Type: typ, StreamID: 3, Seq: uint32(v), Payload: seed.payload, Budget: budget}
			var buf bytes.Buffer
			if err := Write(&buf, in); err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			got, err := Read(&buf, DefaultMaxPayload)
			if err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			if got.Type != in.Type || got.StreamID != in.StreamID || got.Seq != in.Seq || got.Budget != in.Budget {
				t.Errorf("%v: read %+v, wrote %+v", typ, got, in)
			}
			back, err := seed.reencode(got.Payload)
			if err != nil || !bytes.Equal(back, seed.payload) {
				t.Errorf("%v: seed payload did not survive its decoder: %v", typ, err)
			}
		}
	}
}
