package vcodec

import (
	"fmt"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/transform"
)

// coeffPool recycles the per-plane coefficient staging buffers used by the
// two-phase (parallel transform, serial entropy write) block coding loops.
var coeffPool par.SlabPool[int32]

// blockGrain is how many 8×8 transform blocks one worker claims at a
// time; large enough to amortize scheduling, small enough to load-balance.
const blockGrain = 16

// Encoder carries coding state across chunks: the two reference slots
// (decoded, i.e. closed-loop), the display-frame counter, and the rate
// controller.
type Encoder struct {
	cfg  Config
	grid frame.BlockGrid

	last     *frame.Frame // previous visible decoded frame
	altref   *frame.Frame // latest decoded altref snapshot
	frameIdx int

	rc rateController
}

// NewEncoder validates cfg and returns a ready encoder.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Encoder{
		cfg:  cfg,
		grid: cfg.grid(),
		rc:   newRateController(cfg),
	}, nil
}

// Config returns the encoder configuration (with defaults resolved).
func (e *Encoder) Config() Config { return e.cfg }

// EncodeChunk encodes a batch of display frames and returns the packets in
// decode order (altref packets precede the frames that reference them).
// Chunks may be any length; GOP and altref cadence continue across calls.
func (e *Encoder) EncodeChunk(frames []*frame.Frame) ([]Packet, error) {
	var out []Packet
	for i, f := range frames {
		if f.W != e.cfg.Width || f.H != e.cfg.Height {
			return nil, fmt.Errorf("vcodec: frame %d is %dx%d, config is %dx%d",
				i, f.W, f.H, e.cfg.Width, e.cfg.Height)
		}
		gi := e.frameIdx
		if gi%e.cfg.GOP == 0 {
			pkt := e.encodeKey(f, gi)
			out = append(out, pkt)
		} else {
			if e.cfg.Mode == ModeConstrainedVBR && gi%e.cfg.AltRefInterval == 0 {
				// Snapshot a mid-window future frame (lag-in-frames
				// lookahead) as an invisible altref: the midpoint keeps
				// the reference close to every frame in the window, the
				// role VP9's temporally filtered altref plays. Clamped to
				// the chunk boundary.
				target := i + e.cfg.AltRefInterval/2
				if target >= len(frames) {
					target = len(frames) - 1
				}
				if target > i {
					pkt := e.encodeInter(frames[target], e.frameIdx+(target-i), AltRef)
					frame.Release(e.altref)
					e.altref = pkt.recon
					out = append(out, pkt.Packet)
				}
			}
			pkt := e.encodeInter(f, gi, Inter)
			frame.Release(e.last)
			e.last = pkt.recon
			out = append(out, pkt.Packet)
		}
		e.frameIdx++
	}
	return out, nil
}

// EncodeAll encodes a full sequence and returns the assembled stream.
func (e *Encoder) EncodeAll(frames []*frame.Frame) (*Stream, error) {
	pkts, err := e.EncodeChunk(frames)
	if err != nil {
		return nil, err
	}
	return &Stream{Config: e.cfg, Packets: pkts}, nil
}

func (e *Encoder) encodeKey(f *frame.Frame, displayIdx int) Packet {
	quality := e.rc.keyQuality()
	var w bitstream.Writer
	writeHeader(&w, Key, quality, displayIdx)
	encodeIntraPlanes(&w, f, quality)
	data := w.Bytes()
	recon := decodeIntraFromPacket(data, e.cfg.Width, e.cfg.Height)
	frame.Release(e.last) // the superseded references are encoder-owned
	frame.Release(e.altref)
	e.last = recon
	e.altref = frame.BorrowCopy(recon) // a key frame resets both reference slots
	e.rc.observe(len(data)*8, true)
	return Packet{
		Data: data,
		Info: Info{
			DisplayIndex:  displayIdx,
			Type:          Key,
			Visible:       true,
			ResidualBytes: 0,
			Bytes:         len(data),
			Quality:       quality,
		},
	}
}

// interResult pairs a packet with its closed-loop reconstruction.
type interResult struct {
	Packet
	recon *frame.Frame
}

func (e *Encoder) encodeInter(f *frame.Frame, displayIdx int, typ FrameType) interResult {
	quality := e.rc.interQuality(typ)
	for {
		res := e.encodeInterAt(f, displayIdx, typ, quality)
		// Constrain per-frame overshoot by retrying once at a coarser
		// quantizer, mimicking a real encoder's recode pass.
		if e.rc.overshoots(len(res.Data)*8) && quality > e.rc.minQuality()+10 {
			frame.Release(res.recon) // discarded attempt
			quality -= 10
			continue
		}
		e.rc.observe(len(res.Data)*8, false)
		return res
	}
}

func (e *Encoder) encodeInterAt(f *frame.Frame, displayIdx int, typ FrameType, quality int) interResult {
	last := e.last
	scratchLast := last == nil
	if scratchLast {
		last = frame.BorrowZero(e.cfg.Width, e.cfg.Height)
	}
	mvs, refs, _ := estimateMotion(f, last, e.altref, e.grid, e.cfg.SearchRange)
	pred := predictFrame(last, e.altref, e.grid, mvs, refs)
	if scratchLast {
		frame.Release(last)
	}

	var w bitstream.Writer
	writeHeader(&w, typ, quality, displayIdx)
	for i := range mvs {
		w.WriteBit(int(refs[i]))
		w.WriteSE(int64(mvs[i].DX))
		w.WriteSE(int64(mvs[i].DY))
	}
	residualStart := w.BitLen()
	encodeResidualPlanes(&w, f, pred, quality)
	residualBits := w.BitLen() - residualStart
	data := w.Bytes()

	// Closed-loop reconstruction: decode our own residual on top of the
	// prediction so encoder and decoder reference states match exactly.
	recon := pred
	applyResidualFromPacket(data, recon, e.grid, quality)

	return interResult{
		Packet: Packet{
			Data: data,
			Info: Info{
				DisplayIndex:  displayIdx,
				Type:          typ,
				Visible:       typ != AltRef,
				ResidualBytes: (residualBits + 7) / 8,
				Bytes:         len(data),
				Quality:       quality,
				MVs:           mvs,
				Refs:          refs,
			},
		},
		recon: recon,
	}
}

// writeHeader writes the common packet header.
func writeHeader(w *bitstream.Writer, typ FrameType, quality, displayIdx int) {
	w.WriteBits(uint64(typ), 2)
	w.WriteBits(uint64(quality), 7)
	w.WriteUE(uint64(displayIdx))
}

// planeBlocks returns the 8×8 block-grid shape of a plane: columns, rows,
// and total block count, in the raster order forEachBlock visits.
func planeBlocks(p *frame.Plane) (nbx, nby, n int) {
	bs := transform.BlockSize
	nbx = (p.W + bs - 1) / bs
	nby = (p.H + bs - 1) / bs
	return nbx, nby, nbx * nby
}

// encodeIntraPlanes codes all three planes as level-shifted DCT blocks
// with DC prediction, as in the image codec.
//
// Coding runs in two phases so the serial bitstream stays bit-identical
// while the expensive work parallelizes: every block's forward transform
// and quantization lands in a staging buffer concurrently, then a serial
// pass applies DC prediction and entropy-codes the blocks in raster
// order.
func encodeIntraPlanes(w *bitstream.Writer, f *frame.Frame, quality int) {
	table := transform.QuantizerFor(quality)
	scan := make([]int32, 64)
	for _, p := range f.Planes() {
		nbx, _, n := planeBlocks(p)
		transformBlock := func(i int, b *transform.Block, scan []int32) {
			bs := transform.BlockSize
			bx, by := (i%nbx)*bs, (i/nbx)*bs
			if bx+bs <= p.W && by+bs <= p.H {
				// Interior block: straight row copies, no per-sample clamping.
				for y := 0; y < bs; y++ {
					row := p.Row(by + y)[bx : bx+bs]
					o := y * bs
					for x, v := range row {
						b[o+x] = int32(v) - 128
					}
				}
			} else {
				for y := 0; y < bs; y++ {
					for x := 0; x < bs; x++ {
						b[y*bs+x] = int32(p.At(bx+x, by+y)) - 128
					}
				}
			}
			transform.FDCT(b, b)
			table.QuantizeZigzag(scan, b)
		}
		writeBlock := func(scan []int32, prevDC int32) int32 {
			// The DC sits at scan position 0.
			dc := scan[0]
			scan[0] -= prevDC
			bitstream.WriteCoeffs(w, scan)
			return dc
		}
		if par.Workers() == 1 {
			// Single worker: fuse the phases and skip the staging buffer.
			prevDC := int32(0)
			var b transform.Block
			for i := 0; i < n; i++ {
				transformBlock(i, &b, scan)
				prevDC = writeBlock(scan, prevDC)
			}
			continue
		}
		coeffs := coeffPool.Get(n * 64)
		par.For(n, blockGrain, func(lo, hi int) {
			var b transform.Block
			for i := lo; i < hi; i++ {
				transformBlock(i, &b, coeffs[i*64:(i+1)*64])
			}
		})
		prevDC := int32(0)
		for i := 0; i < n; i++ {
			prevDC = writeBlock(coeffs[i*64:(i+1)*64], prevDC)
		}
		coeffPool.Put(coeffs)
	}
}

// encodeResidualPlanes codes (src - pred) for all planes as DCT blocks
// without level shift or DC prediction (residuals are already zero-mean).
// Residual blocks have no cross-block state, so the parallel phase stages
// them directly in zigzag order and the serial phase only writes bits.
func encodeResidualPlanes(w *bitstream.Writer, src, pred *frame.Frame, quality int) {
	table := transform.QuantizerFor(quality)
	sp, pp := src.Planes(), pred.Planes()
	for pi := 0; pi < 3; pi++ {
		s, p := sp[pi], pp[pi]
		nbx, _, n := planeBlocks(s)
		transformBlock := func(i int, b *transform.Block, scan []int32) {
			bs := transform.BlockSize
			bx, by := (i%nbx)*bs, (i/nbx)*bs
			or := int32(0)
			if bx+bs <= s.W && by+bs <= s.H {
				// Interior block: straight row differences, no clamping.
				for y := 0; y < bs; y++ {
					srow := s.Row(by + y)[bx : bx+bs]
					prow := p.Row(by + y)[bx : bx+bs][:len(srow)]
					o := y * bs
					for x, v := range srow {
						d := int32(v) - int32(prow[x])
						or |= d
						b[o+x] = d
					}
				}
			} else {
				for y := 0; y < bs; y++ {
					for x := 0; x < bs; x++ {
						d := int32(s.At(bx+x, by+y)) - int32(p.At(bx+x, by+y))
						or |= d
						b[y*bs+x] = d
					}
				}
			}
			// A zero residual block (static content after motion
			// compensation) transforms, quantizes, and scans to all zeros;
			// emit the zero scan directly.
			if or == 0 {
				for j := range scan[:64] {
					scan[j] = 0
				}
				return
			}
			transform.FDCT(b, b)
			table.QuantizeZigzag(scan, b)
		}
		if par.Workers() == 1 {
			scan := make([]int32, 64)
			var b transform.Block
			for i := 0; i < n; i++ {
				transformBlock(i, &b, scan)
				bitstream.WriteCoeffs(w, scan)
			}
			continue
		}
		coeffs := coeffPool.Get(n * 64)
		par.For(n, blockGrain, func(lo, hi int) {
			var b transform.Block
			for i := lo; i < hi; i++ {
				transformBlock(i, &b, coeffs[i*64:(i+1)*64])
			}
		})
		for i := 0; i < n; i++ {
			bitstream.WriteCoeffs(w, coeffs[i*64:(i+1)*64])
		}
		coeffPool.Put(coeffs)
	}
}
