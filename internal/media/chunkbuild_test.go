package media

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/anchor"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/vcodec"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// referencePrepareChunk is the chunk builder as whole-chunk decode: it
// reconstructs every packet with Decode, checks the chunk is key-first,
// then selects from the decoded side information and hands out the
// decoded frames. prepareChunk must produce exactly what it does.
func referencePrepareChunk(s *Server, pc *pendingChunk, dec *vcodec.Decoder, deadline time.Time) error {
	frames := pc.container.Frames
	decoded := make([]*vcodec.Decoded, len(frames))
	infos := make([]vcodec.Info, len(frames))
	for i := range frames {
		d, err := dec.Decode(frames[i].VideoPacket)
		if err != nil {
			return err
		}
		decoded[i], infos[i] = d, d.Info
	}
	if infos[0].Type != vcodec.Key {
		return errors.New("chunk does not start with a key frame")
	}
	cands := anchor.ZeroInferenceGains(anchor.MetasFromInfos(infos))
	n := max(int(s.budget.Fraction(pc.streamID, s.cfg.AnchorFraction)*float64(len(frames))+0.5), 1)
	pc.selected = anchor.SelectTopN(cands, n)
	pc.jobs = make([]wire.AnchorJob, len(pc.selected))
	pc.outcomes = make([]AnchorOutcome, len(pc.selected))
	for si, c := range pc.selected {
		i := c.Meta.Packet
		pc.jobs[si] = wire.AnchorJob{
			Packet:       i,
			DisplayIndex: decoded[i].Info.DisplayIndex,
			QP:           pc.st.qp,
			Frame:        decoded[i].Frame,
			Deadline:     deadline,
		}
	}
	return nil
}

// chunkBuilder is one stream registered on a server whose chunks a test
// builds by hand: the oracle's LR frames, an encoder over them, and
// decoders sized for the stream.
type chunkBuilder struct {
	srv *Server
	st  *serverStream
	enc *vcodec.Encoder
	lr  []*frame.Frame
}

const builderStreamID = 5

func newChunkBuilder(t *testing.T, frac float64, altRef, frames int) *chunkBuilder {
	t.Helper()
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: frac, Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hello := testHello()
	hello.Config.AltRefInterval = altRef
	payload, err := wire.EncodeHello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.registerStream(wire.Message{Type: wire.TypeHello, StreamID: builderStreamID, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	enc, err := vcodec.NewEncoder(hello.Config)
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	st := srv.streams[builderStreamID]
	srv.mu.Unlock()
	return &chunkBuilder{srv: srv, st: st, enc: enc, lr: lrFromHR(t, store.get(builderStreamID))}
}

func (b *chunkBuilder) decoder(t *testing.T) *vcodec.Decoder {
	t.Helper()
	dec, err := vcodec.NewDecoder(b.st.hello.Config.Width, b.st.hello.Config.Height)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// encode codes the next frames of the stream as one chunk's packets.
func (b *chunkBuilder) encode(t *testing.T, from, to int) [][]byte {
	t.Helper()
	pkts, err := b.enc.EncodeChunk(b.lr[from:to])
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(pkts))
	for i, p := range pkts {
		out[i] = p.Data
	}
	return out
}

func (b *chunkBuilder) pending(pkts [][]byte) *pendingChunk {
	c := &hybrid.Container{Config: b.st.hello.Config, Scale: b.st.hello.Scale, Frames: make([]hybrid.ContainerFrame, len(pkts))}
	for i, p := range pkts {
		c.Frames[i] = hybrid.ContainerFrame{VideoPacket: p}
	}
	return &pendingChunk{streamID: builderStreamID, st: b.st, container: c}
}

type chunkBuild func(*Server, *pendingChunk, *vcodec.Decoder, time.Time) error

// build runs one builder over pkts on dec and returns what it prepared
// together with the container it assembles into.
func (b *chunkBuilder) build(t *testing.T, prepare chunkBuild, dec *vcodec.Decoder, pkts [][]byte) (*pendingChunk, []byte) {
	t.Helper()
	pc := b.pending(pkts)
	if err := prepare(b.srv, pc, dec, time.Time{}); err != nil {
		t.Fatal(err)
	}
	b.srv.dispatchAnchors(pc)
	data, degraded, err := b.srv.assembleChunk(pc, time.Time{})
	if err != nil || degraded {
		t.Fatalf("assemble: degraded=%v err=%v", degraded, err)
	}
	return pc, data
}

// requireBuildsMatch streams chunks of chunkFrames frames through the
// reference on a reused decoder, prepareChunk on a reused decoder (a
// decoder the pool hands back after it built the previous chunk),
// prepareChunk on a fresh decoder per chunk (a pool miss), and prepare
// itself. All four must agree on the selection, on every job — packet,
// display index, QP, deadline and frame pixels — and on the container
// bytes. It returns the packets and selection of each chunk.
func requireBuildsMatch(t *testing.T, frac float64, altRef, chunkFrames, chunks int) ([][][]byte, [][]anchor.Candidate) {
	t.Helper()
	b := newChunkBuilder(t, frac, altRef, chunkFrames*chunks)
	refDec, reusedDec := b.decoder(t), b.decoder(t)
	pooled := func(s *Server, pc *pendingChunk, _ *vcodec.Decoder, deadline time.Time) error {
		return s.prepare(pc, deadline)
	}
	var packets [][][]byte
	var selected [][]anchor.Candidate
	for c := 0; c < chunks; c++ {
		pkts := b.encode(t, c*chunkFrames, (c+1)*chunkFrames)
		want, wantData := b.build(t, referencePrepareChunk, refDec, pkts)
		for _, run := range []struct {
			name    string
			prepare chunkBuild
			dec     *vcodec.Decoder
		}{
			{"reused", (*Server).prepareChunk, reusedDec},
			{"fresh", (*Server).prepareChunk, b.decoder(t)},
			{"pooled", pooled, nil},
		} {
			got, gotData := b.build(t, run.prepare, run.dec, pkts)
			if !reflect.DeepEqual(got.selected, want.selected) {
				t.Fatalf("chunk %d %s: selected %+v, reference %+v", c, run.name, got.selected, want.selected)
			}
			if !reflect.DeepEqual(got.jobs, want.jobs) {
				t.Fatalf("chunk %d %s: jobs differ from the reference's", c, run.name)
			}
			if !bytes.Equal(gotData, wantData) {
				t.Fatalf("chunk %d %s: container bytes differ from the reference's", c, run.name)
			}
		}
		packets = append(packets, pkts)
		selected = append(selected, want.selected)
	}
	return packets, selected
}

// TestPrepareChunkMatchesWholeChunkDecode pins scan → select →
// reconstruct-prefix to the whole-chunk decode it replaced.
func TestPrepareChunkMatchesWholeChunkDecode(t *testing.T) {
	// An altref interval of a puts the chunk's first altref at packet a
	// (it precedes display frame a); with GOP 12, a = 11 would clamp the
	// altref onto its own frame and code none.
	for a := 2; a < testGOP-1; a++ {
		t.Run(fmt.Sprintf("altref-at-%d", a), func(t *testing.T) {
			packets, _ := requireBuildsMatch(t, 0.15, a, testGOP, 2)
			dec, err := vcodec.NewDecoder(testLRW, testLRH)
			if err != nil {
				t.Fatal(err)
			}
			for i, pkt := range packets[0][:a+1] {
				info, err := dec.Scan(pkt)
				if err != nil {
					t.Fatal(err)
				}
				if isAltRef := info.Type == vcodec.AltRef; isAltRef != (i == a) {
					t.Fatalf("packet %d is %v; want the first altref at packet %d", i, info.Type, a)
				}
			}
		})
	}
	for _, tc := range []struct {
		name        string
		frac        float64
		chunkFrames int
		anchors     int
	}{
		{"one-anchor", 0.05, testGOP, 1},
		{"two-anchors", 0.15, testGOP, 2},
		{"four-anchors-two-gops", 0.15, 2 * testGOP, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, selected := requireBuildsMatch(t, tc.frac, 0, tc.chunkFrames, 2)
			for c, sel := range selected {
				if len(sel) != tc.anchors {
					t.Errorf("chunk %d selected %d anchors, want %d", c, len(sel), tc.anchors)
				}
			}
		})
	}
}

// TestPrepareChunkRejectsNonKeyFirstBeforeReconstructing: a chunk that
// does not start with a key frame is refused on its scan alone, so a
// decoder the pool hands out, whose reference slots hold whatever chunk
// it built before, neither reads those slots nor changes them.
func TestPrepareChunkRejectsNonKeyFirstBeforeReconstructing(t *testing.T) {
	b := newChunkBuilder(t, 0.15, 0, testGOP)
	first := b.encode(t, 0, testGOP/2)
	midGOP := b.encode(t, testGOP/2, testGOP)
	dec, twin := b.decoder(t), b.decoder(t)
	b.build(t, (*Server).prepareChunk, dec, first)
	b.build(t, (*Server).prepareChunk, twin, first)

	err := b.srv.prepareChunk(b.pending(midGOP), dec, time.Time{})
	if err == nil || !strings.Contains(err.Error(), "key frame") {
		t.Fatalf("mid-GOP chunk: err = %v, want the key-first rejection", err)
	}
	// Decoding the refused packets on both decoders reconstructs the same
	// frames only if the refusal touched neither reference slot.
	for i, pkt := range midGOP {
		got, err := dec.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Decode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Frame, want.Frame) {
			t.Fatalf("packet %d: the refused chunk changed the decoder's reference state", i)
		}
	}
}
