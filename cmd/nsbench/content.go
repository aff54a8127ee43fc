package main

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/synth"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// The fixed content geometry of every workload: synth "lol" at 96×64
// ingest resolution, ×3 super-resolution, one 12-frame GOP per chunk,
// and the anchor fraction that selects two anchors per chunk.
const (
	lrW, lrH       = 96, 64
	srScale        = 3
	gopFrames      = 12
	anchorFraction = 0.15
)

func quietf(string, ...any) {}

// video is one distinct piece of content, encoded once in set-up: the
// load generators only replay its ready-made wire payloads.
type video struct {
	hr []*frame.Frame // HR source in display order: the oracle model's "weights"
	lr []*frame.Frame // ingest-resolution frames (kept for the standalone encode timing)
	// packets[c] are chunk c's encoded video packets and payloads[c] the
	// same packets as a TypeChunk payload.
	packets  [][][]byte
	payloads [][]byte
	// refs[c] is chunk c's container as a serial origin builds it, and
	// sums[c] its SHA-256: the byte-determinism reference.
	refs [][]byte
	sums [][sha256.Size]byte
}

func (v *video) chunks() int { return len(v.payloads) }

// streamHello is the hello every benchmark stream announces, with the
// codec defaults resolved as media.NewStreamer would.
func streamHello() (wire.Hello, error) {
	enc, err := vcodec.NewEncoder(vcodec.Config{
		Width: lrW, Height: lrH, FPS: 30, BitrateKbps: 700,
		GOP: gopFrames, Mode: vcodec.ModeConstrainedVBR,
	})
	if err != nil {
		return wire.Hello{}, err
	}
	return wire.Hello{Config: enc.Config(), Scale: srScale, Model: sr.HighQuality(), Content: "lol"}, nil
}

// makeVideo renders and encodes `chunks` GOP-aligned chunks of content
// for the given seed.
func makeVideo(seed int64, chunks int) (*video, error) {
	prof, err := synth.ProfileByName("lol")
	if err != nil {
		return nil, err
	}
	gen, err := synth.NewGenerator(prof, lrW*srScale, lrH*srScale, seed)
	if err != nil {
		return nil, err
	}
	hello, err := streamHello()
	if err != nil {
		return nil, err
	}
	enc, err := vcodec.NewEncoder(hello.Config)
	if err != nil {
		return nil, err
	}
	v := &video{hr: gen.GenerateChunk(gopFrames * chunks)}
	v.lr = make([]*frame.Frame, len(v.hr))
	for i, f := range v.hr {
		if v.lr[i], err = frame.Downscale(f, srScale); err != nil {
			return nil, err
		}
	}
	for c := 0; c < chunks; c++ {
		pkts, err := enc.EncodeChunk(v.lr[c*gopFrames : (c+1)*gopFrames])
		if err != nil {
			return nil, err
		}
		if pkts[0].Info.Type != vcodec.Key {
			return nil, fmt.Errorf("chunk %d does not start a GOP", c)
		}
		raw := make([][]byte, len(pkts))
		for i, p := range pkts {
			raw[i] = p.Data
		}
		v.packets = append(v.packets, raw)
		v.payloads = append(v.payloads, wire.EncodeChunk(raw))
	}
	return v, nil
}

// corpusSeed fixes the content. The corpus is the same for every run
// seed — the seed drives the traffic (arrival order, keys, which
// deliveries are hashed), not the pixels — because decode cost,
// container size and PSNR gain all depend on the content, and a run's
// numbers would otherwise move with its seed by more than any change to
// the code could.
const corpusSeed = 20220822

// makeVideos builds the corpus's first n videos.
func makeVideos(n, chunks int) ([]*video, error) {
	videos := make([]*video, n)
	for i := range videos {
		v, err := makeVideo(corpusSeed+int64(i), chunks)
		if err != nil {
			return nil, err
		}
		videos[i] = v
	}
	return videos, nil
}

// oracleProvider resolves a stream's content-aware model from the video
// videoOf assigns it; wrap, when non-nil, puts the benchmark's device in
// front of the model.
func oracleProvider(videoOf func(uint32) *video, wrap func(uint32, sr.Model) sr.Model) media.ModelProvider {
	var mu sync.Mutex
	return func(streamID uint32, h wire.Hello) (sr.Model, error) {
		mu.Lock()
		defer mu.Unlock()
		v := videoOf(streamID)
		if v == nil {
			return nil, fmt.Errorf("nsbench: no content for stream %d", streamID)
		}
		m, err := sr.NewOracleModel(h.Model, v.hr)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			return wrap(streamID, m), nil
		}
		return m, nil
	}
}

// buildRefs runs every chunk of every video through a serial origin
// (no anchor fan-out, no stage overlap, a plain in-process enhancer) and
// keeps the containers it stores. Whatever the measured topology
// delivers for the same chunk must equal these bytes.
func buildRefs(videos []*video) error {
	videoOf := func(id uint32) *video { return videos[id-1] }
	local, err := media.NewLocalEnhancer(oracleProvider(videoOf, nil))
	if err != nil {
		return err
	}
	srv, err := media.NewServer("127.0.0.1:0", local, media.ServerConfig{
		AnchorFraction: anchorFraction, MaxInFlightAnchors: -1, PipelineDepth: -1,
		ChunkRetention: -1, Logf: quietf,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ids := make([]uint32, len(videos))
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	conn, err := dialIngest(srv.Addr(), ids, videoOf, 0, nil)
	if err != nil {
		return err
	}
	defer conn.close()
	for i, v := range videos {
		for c := 0; c < v.chunks(); c++ {
			if err := conn.sendWait(i); err != nil {
				return err
			}
		}
	}
	if n := conn.failed(); n != 0 {
		return fmt.Errorf("nsbench: serial origin refused %d chunks", n)
	}
	for i, v := range videos {
		v.refs, v.sums = nil, nil
		for c := 0; c < v.chunks(); c++ {
			data, err := srv.Store().Chunk(ids[i], c)
			if err != nil {
				return err
			}
			v.refs = append(v.refs, data)
			v.sums = append(v.sums, sha256.Sum256(data))
		}
	}
	return nil
}
