package neuroscaler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/icodec"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/synth"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// Golden SHA-256s of codec output, recorded when the fixed-point 8×8
// transform became the format (icodec version 2). They pin the bytes on
// every architecture: a change that moves any of them is a format change
// and must re-record them on purpose. The content is the benchmark's:
// synth "lol" at 96×64 ingest resolution, ×3 super-resolution, 12-frame
// GOPs, anchor fraction 0.15, corpus seed 20220822.
const (
	goldenLRW, goldenLRH = 96, 64
	goldenScale          = 3
	goldenGOP            = 12
	goldenSeed           = 20220822
)

var (
	// goldenAnchors are icodec.Encode of the first HR frame, by quality.
	goldenAnchors = map[int]string{
		1:   "b585106406b19aaab042026ebd4203f7f99932d13ae007e2c5eb371ac0e77a95",
		50:  "64e7e54566d9ab921e5f58532f352562a5087ae4501f1099babe7411f31ce8b0",
		85:  "48e063443214fb53279b5c699ff52579bbc9d889839add57d00160ac97f6c43f",
		90:  "76a507e5d9ac6cadfc57e659779032f01594f60da3d9228069432a925398371f",
		95:  "08bdbdbe163986758d7d3b9f057a9f9df9bfb9fe9b375a32827b6aa8ade3cddc",
		100: "1b388acbbf188511c779818eb487916cbff73f5542428973504e209c6ceb75eb",
	}
	// goldenGOPPackets is the vcodec packets of the first 12-frame GOP,
	// each length-prefixed.
	goldenGOPPackets = "e0c12280277d70cd6e4ea6a96aa666e72c614ae03628122768fa99947c980a66"
	// goldenContainers are the hybrid containers a serial origin stores
	// for two streams of two chunks each, in (stream, chunk) order.
	goldenContainers = []string{
		"45e3be8cd22c7e81f657fe37e50f0daee83ae260b38e0077a31ba414ee58973f",
		"20e04c5c7cbb1c16f791a2a7347828d64b5bad485664a8b8d5271e6ab1cdb46e",
		"bf48663a006d1db55c38cd97e813d032722b7c55a1e56c16684f223163e821cb",
		"837f2ba094409c92e20974f8bf7877988f948d81bbaaac4234e20e172ebb8ca0",
	}
	// goldenSR is sr.OracleModel.Apply with sr.HighQuality() on the first
	// GOP, by display index: the Y, U and V rows of each output in turn.
	// Anchor quantization can absorb a ±1 sample change, so these pin the
	// super-resolved pixels the anchors are coded from.
	goldenSR = []string{
		"13f033e20248e3dd7888c8ca99d3ffceaebf656846dc6d12110319543e1eb08d",
		"34a6c74a308c9173ecc5f64b6e878b302e79d4da0aa58bef89ca291b7958794d",
		"5532cb07341c6121a844c27486235120073a1a7ec9f44f9b55addaf285ebad5b",
		"50bd7181e956167797f4d54afaba7c3e6dfc16f6c39be6ab694c9423ee7e324b",
		"5809615211703d993a8c7bf0f55f738e0e71a64a68268c8fc2fe60bcbb10148b",
		"4deb83d627be84cdcbd61130c1132f0700a81b6cbad8c80258e408af6ec6e6db",
		"d09a75d008c7cda8b5e76dca3a0780bca5e3a26bf34beccecb60fe3b0ec5c8cb",
		"671f4e33eef2ae155f46c049efaa5978fa6accf2ae5cafb293c0f090ae15238c",
		"3ab4ab54c3587e56626b0d18dd5017772986fc92f75dc04ee7674c7d814f3ffa",
		"cca7b5e1f16a7cd6d08b2b041faaed99292d05fea7d0d454bc26336b204b7422",
		"40a6a2054d81593ea4921fcfec3a9f9056a0b0de3eea842dc091fbe705468ba6",
		"4ff9e5d4f0e7640842e47c868365e47a73158fefd9fd3eac322d1150f101579d",
	}
)

// goldenContent renders `frames` HR frames of the golden content for
// seed and their ingest-resolution downscales.
func goldenContent(t *testing.T, seed int64, frames int) (hr, lr []*frame.Frame) {
	t.Helper()
	prof, err := synth.ProfileByName("lol")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := synth.NewGenerator(prof, goldenLRW*goldenScale, goldenLRH*goldenScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	hr = gen.GenerateChunk(frames)
	lr = make([]*frame.Frame, len(hr))
	for i, f := range hr {
		if lr[i], err = frame.Downscale(f, goldenScale); err != nil {
			t.Fatal(err)
		}
	}
	return hr, lr
}

func goldenHello() wire.Hello {
	return wire.Hello{
		Config: vcodec.Config{
			Width: goldenLRW, Height: goldenLRH, FPS: 30, BitrateKbps: 700,
			GOP: goldenGOP, Mode: vcodec.ModeConstrainedVBR,
		},
		Scale:   goldenScale,
		Model:   sr.HighQuality(),
		Content: "lol",
	}
}

func checkGolden(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: SHA-256 %s, golden %s", what, got, want)
	}
}

// TestGoldenCodecBytes pins the bytes of both codecs and of the hybrid
// containers the origin builds from them.
func TestGoldenCodecBytes(t *testing.T) {
	t.Run("icodec", func(t *testing.T) {
		hr, _ := goldenContent(t, goldenSeed, 1)
		for _, q := range []int{1, 50, 85, 90, 95, 100} {
			data, _, err := icodec.Encode(hr[0], icodec.Options{Quality: q})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("icodec quality %d", q), data, goldenAnchors[q])
		}
	})
	t.Run("vcodec", func(t *testing.T) {
		_, lr := goldenContent(t, goldenSeed, goldenGOP)
		enc, err := vcodec.NewEncoder(goldenHello().Config)
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := enc.EncodeChunk(lr)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, p := range pkts {
			all = binary.BigEndian.AppendUint32(all, uint32(len(p.Data)))
			all = append(all, p.Data...)
		}
		checkGolden(t, "vcodec GOP", all, goldenGOPPackets)
	})
	t.Run("sr", func(t *testing.T) {
		hr, lr := goldenContent(t, goldenSeed, goldenGOP)
		m, err := sr.NewOracleModel(sr.HighQuality(), hr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range lr {
			out, err := m.Apply(lr[i], i)
			if err != nil {
				t.Fatal(err)
			}
			var pix []byte
			for _, p := range out.Planes() {
				for y := 0; y < p.H; y++ {
					pix = append(pix, p.Row(y)...)
				}
			}
			checkGolden(t, fmt.Sprintf("sr display index %d", i), pix, goldenSR[i])
		}
	})
	t.Run("hybrid", func(t *testing.T) {
		const streams, chunks = 2, 2
		hr := make([][]*frame.Frame, streams)
		lr := make([][]*frame.Frame, streams)
		for i := range hr {
			hr[i], lr[i] = goldenContent(t, goldenSeed+int64(i), chunks*goldenGOP)
		}
		local, err := media.NewLocalEnhancer(func(id uint32, h wire.Hello) (sr.Model, error) {
			return sr.NewOracleModel(h.Model, hr[id-1])
		})
		if err != nil {
			t.Fatal(err)
		}
		// The serial origin: no anchor fan-out, no stage overlap.
		srv, err := media.NewServer("127.0.0.1:0", local, media.ServerConfig{
			AnchorFraction: 0.15, MaxInFlightAnchors: -1, PipelineDepth: -1,
			ChunkRetention: -1, Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for i := 0; i < streams; i++ {
			id := uint32(i + 1)
			st, err := media.NewStreamer(srv.Addr(), id, goldenHello())
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < chunks; c++ {
				if _, err := st.SendChunk(lr[i][c*goldenGOP : (c+1)*goldenGOP]); err != nil {
					t.Fatalf("stream %d chunk %d: %v", id, c, err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < chunks; c++ {
				data, err := srv.Store().Chunk(id, c)
				if err != nil {
					t.Fatalf("stream %d chunk %d: %v", id, c, err)
				}
				checkGolden(t, fmt.Sprintf("container stream %d chunk %d", id, c), data, goldenContainers[i*chunks+c])
			}
		}
	})
}
