package vcodec

import (
	"errors"
	"fmt"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/transform"
)

// Decoded is one decoded frame plus the codec-level side information the
// paper's modified decoding API exposes. Invisible (altref) frames are
// returned too, because the anchor enhancer may super-resolve them.
type Decoded struct {
	Frame *frame.Frame
	Info  Info
	// Residual is the decoded residual in biased form (+128), present for
	// inter/altref packets when the decoder's CaptureResidual flag is set.
	// Selective super-resolution upscales it onto warped frames.
	Residual *frame.Frame
}

// Decoder reconstructs frames from packets, mirroring the encoder's
// reference-slot state machine.
type Decoder struct {
	w, h   int
	grid   frame.BlockGrid
	last   *frame.Frame
	altref *frame.Frame
	// mvs and refs hold the motion of frames Reconstruct decodes, whose
	// Info no caller sees; Decode hands out fresh slices instead.
	mvs  []frame.MotionVector
	refs []uint8

	// CaptureResidual requests that Decode also return the decoded
	// residual of inter/altref frames (the paper's extension of
	// vpx_codec_get_frame).
	CaptureResidual bool
}

// NewDecoder returns a decoder for w×h streams.
func NewDecoder(w, h int) (*Decoder, error) {
	if w <= 0 || h <= 0 {
		return nil, errors.New("vcodec: decoder dimensions must be positive")
	}
	return &Decoder{
		w: w, h: h,
		grid: frame.BlockGrid{FrameW: w, FrameH: h, Block: MEBlock},
	}, nil
}

// NewDecoderFor returns a decoder matching a stream's configuration.
func NewDecoderFor(s *Stream) (*Decoder, error) {
	return NewDecoder(s.Config.Width, s.Config.Height)
}

// Decode parses one packet and returns its reconstruction. The returned
// frame is a copy borrowed from the frame arena and owned by the caller,
// who may Release it once done; decoder reference state keeps its own
// frames.
func (d *Decoder) Decode(data []byte) (*Decoded, error) {
	ref, info, residual, err := d.reconstruct(data, true)
	if err != nil {
		return nil, err
	}
	return &Decoded{Frame: frame.BorrowCopy(ref), Info: info, Residual: residual}, nil
}

// Reconstruct decodes one packet into the decoder's reference slots
// without returning its frame: the Decode of a packet whose pixels no
// caller reads but whose successors predict from it. Its errors are
// Decode's.
func (d *Decoder) Reconstruct(data []byte) error {
	_, _, residual, err := d.reconstruct(data, false)
	frame.Release(residual)
	return err
}

// reconstruct decodes one packet into the reference slots and returns
// the slot frame it wrote (decoder-owned: callers copy before handing
// it out), the packet's side information, and the captured residual.
// The Info carries freshly allocated MVs and Refs only with keepMotion;
// without it the motion is read into decoder scratch and left out.
func (d *Decoder) reconstruct(data []byte, keepMotion bool) (*frame.Frame, Info, *frame.Frame, error) {
	r := bitstream.NewReader(data)
	info, err := readHeader(r, len(data))
	if err != nil {
		return nil, Info{}, nil, err
	}
	if info.Type == Key {
		f, err := decodeIntraPlanes(r, d.w, d.h, info.Quality)
		if err != nil {
			return nil, Info{}, nil, err
		}
		// Reference slots are decoder-internal (callers only ever see
		// copies), so superseded ones go back to the frame arena.
		frame.Release(d.last)
		frame.Release(d.altref)
		d.last = f
		d.altref = frame.BorrowCopy(f)
		return f, info, nil, nil
	}

	if d.last == nil {
		return nil, Info{}, nil, errors.New("vcodec: inter frame before any key frame")
	}
	n := d.grid.NumBlocks()
	if d.mvs == nil && !keepMotion {
		d.mvs, d.refs = make([]frame.MotionVector, n), make([]uint8, n)
	}
	mvs, refs := d.mvs, d.refs
	if keepMotion {
		mvs, refs = make([]frame.MotionVector, n), make([]uint8, n)
	}
	if err := readMotion(r, n, mvs, refs); err != nil {
		return nil, Info{}, nil, err
	}
	residualStart := r.BitsRead()
	pred := predictFrame(d.last, d.altref, d.grid, mvs, refs)
	var capture *frame.Frame
	if d.CaptureResidual {
		capture = frame.Borrow(d.w, d.h)
		capture.Y.Fill(128)
		capture.U.Fill(128)
		capture.V.Fill(128)
	}
	if err := decodeResidualWithCapture(r, pred, info.Quality, capture); err != nil {
		frame.Release(pred)
		frame.Release(capture)
		return nil, Info{}, nil, err
	}
	info.ResidualBytes = (r.BitsRead() - residualStart + 7) / 8
	if keepMotion {
		info.MVs = mvs
		info.Refs = refs
	}

	switch info.Type {
	case AltRef:
		frame.Release(d.altref)
		d.altref = pred
	default:
		frame.Release(d.last)
		d.last = pred
	}
	return pred, info, capture, nil
}

// Scan parses one packet — header, motion section and residual
// section — without predicting, transforming or allocating a frame, and
// returns the side information anchor selection reads: Type,
// DisplayIndex, Visible, Bytes, Quality and ResidualBytes, each exactly
// as Decode reports it. MVs and Refs are left nil.
//
// Scan reads no reference state and changes none, so a chunk's packets
// can all be scanned before any of them is reconstructed. On a decoder
// holding a key frame it fails on exactly the packets Decode fails on;
// the one failure it cannot see is Decode's "inter frame before any key
// frame", which is a property of the decoder's state, not of the packet.
func (d *Decoder) Scan(data []byte) (Info, error) {
	r := bitstream.NewReader(data)
	info, err := readHeader(r, len(data))
	if err != nil {
		return Info{}, err
	}
	if info.Type == Key {
		if err := skipPlanes(r, d.w, d.h, "intra"); err != nil {
			return Info{}, err
		}
		return info, nil
	}
	if err := readMotion(r, d.grid.NumBlocks(), nil, nil); err != nil {
		return Info{}, err
	}
	residualStart := r.BitsRead()
	if err := skipPlanes(r, d.w, d.h, "residual"); err != nil {
		return Info{}, err
	}
	info.ResidualBytes = (r.BitsRead() - residualStart + 7) / 8
	return info, nil
}

// readHeader parses a packet header (frame type, quality, display index)
// into the Info it determines.
func readHeader(r *bitstream.Reader, size int) (Info, error) {
	typBits, err := r.ReadBits(2)
	if err != nil {
		return Info{}, fmt.Errorf("vcodec: truncated header: %w", err)
	}
	typ := FrameType(typBits)
	if typ > Inter {
		return Info{}, fmt.Errorf("vcodec: invalid frame type %d", typBits)
	}
	qBits, err := r.ReadBits(7)
	if err != nil {
		return Info{}, fmt.Errorf("vcodec: truncated header: %w", err)
	}
	quality := int(qBits)
	if quality < 1 || quality > 100 {
		return Info{}, fmt.Errorf("vcodec: corrupt quality %d", quality)
	}
	idx, err := r.ReadUE()
	if err != nil {
		return Info{}, fmt.Errorf("vcodec: truncated header: %w", err)
	}
	return Info{
		DisplayIndex: int(idx),
		Type:         typ,
		Visible:      typ != AltRef,
		Bytes:        size,
		Quality:      quality,
	}, nil
}

// readMotion parses an inter packet's n per-block (reference, vector)
// records, storing them into mvs and refs when those are non-nil.
func readMotion(r *bitstream.Reader, n int, mvs []frame.MotionVector, refs []uint8) error {
	for i := 0; i < n; i++ {
		bit, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("vcodec: truncated motion data: %w", err)
		}
		dx, err := r.ReadSE()
		if err != nil {
			return fmt.Errorf("vcodec: truncated motion data: %w", err)
		}
		dy, err := r.ReadSE()
		if err != nil {
			return fmt.Errorf("vcodec: truncated motion data: %w", err)
		}
		if mvs != nil {
			refs[i] = uint8(bit)
			mvs[i] = frame.MotionVector{DX: int(dx), DY: int(dy)}
		}
	}
	return nil
}

// skipPlanes consumes the coefficient codes of every 8×8 block of a w×h
// frame's three planes, failing with the error the reconstructing parse
// reports for the same block; what names the section ("intra" or
// "residual") as that error does.
func skipPlanes(r *bitstream.Reader, w, h int, what string) error {
	bs := transform.BlockSize
	cw, ch := (w+1)/2, (h+1)/2
	for _, dim := range [3][2]int{{w, h}, {cw, ch}, {cw, ch}} {
		nbx := (dim[0] + bs - 1) / bs
		n := nbx * ((dim[1] + bs - 1) / bs)
		for i := 0; i < n; i++ {
			if err := bitstream.SkipCoeffs(r, 64); err != nil {
				return fmt.Errorf("vcodec: %s block (%d,%d): %w", what, (i%nbx)*bs, (i/nbx)*bs, err)
			}
		}
	}
	return nil
}

// DecodeStream decodes every packet of a stream in order.
func DecodeStream(s *Stream) ([]*Decoded, error) {
	d, err := NewDecoderFor(s)
	if err != nil {
		return nil, err
	}
	out := make([]*Decoded, 0, len(s.Packets))
	for i, p := range s.Packets {
		dec, err := d.Decode(p.Data)
		if err != nil {
			return nil, fmt.Errorf("vcodec: packet %d: %w", i, err)
		}
		out = append(out, dec)
	}
	return out, nil
}

// VisibleFrames filters a decode result to display-order visible frames.
func VisibleFrames(decoded []*Decoded) []*frame.Frame {
	var out []*frame.Frame
	for _, d := range decoded {
		if d.Info.Visible {
			out = append(out, d.Frame)
		}
	}
	return out
}

// decodeIntraPlanes reconstructs a key frame. Entropy decoding is
// inherently serial (coefficient codes are variable length), so the
// serial phase parses every block's coefficients into a staging buffer —
// resolving DC prediction as it goes, since the DC sits at scan position
// 0 — and the parallel phase runs dequantization, the inverse transform,
// and the pixel store for disjoint block ranges.
//
// The frame comes from the arena: every sample of every plane belongs to
// exactly one block, so the stores overwrite its old contents whole.
func decodeIntraPlanes(r *bitstream.Reader, w, h, quality int) (*frame.Frame, error) {
	if w <= 0 || h <= 0 {
		return nil, frame.ErrBadDimensions
	}
	f := frame.Borrow(w, h)
	table := &transform.QuantizerFor(quality).Table
	for _, p := range f.Planes() {
		nbx, _, n := planeBlocks(p)
		if par.Workers() == 1 {
			// Single worker: fuse parsing and reconstruction per block.
			scan := make([]int32, 64)
			prevDC := int32(0)
			var b transform.Block
			for i := 0; i < n; i++ {
				bx, by := (i%nbx)*transform.BlockSize, (i/nbx)*transform.BlockSize
				if err := bitstream.ReadCoeffs(r, scan); err != nil {
					frame.Release(f)
					return nil, fmt.Errorf("vcodec: intra block (%d,%d): %w", bx, by, err)
				}
				scan[0] += prevDC
				prevDC = scan[0]
				transform.UnzigzagDequant(&b, scan, table)
				transform.IDCT(&b, &b)
				storeShifted(&b, p, bx, by)
			}
			continue
		}
		coeffs := coeffPool.Get(n * 64)
		prevDC := int32(0)
		for i := 0; i < n; i++ {
			scan := coeffs[i*64 : (i+1)*64]
			if err := bitstream.ReadCoeffs(r, scan); err != nil {
				bx, by := (i%nbx)*transform.BlockSize, (i/nbx)*transform.BlockSize
				coeffPool.Put(coeffs)
				frame.Release(f)
				return nil, fmt.Errorf("vcodec: intra block (%d,%d): %w", bx, by, err)
			}
			scan[0] += prevDC
			prevDC = scan[0]
		}
		intraLoop.For(n, blockGrain, blockArgs{coeffs: coeffs, table: table, p: p, nbx: nbx})
		coeffPool.Put(coeffs)
	}
	return f, nil
}

// decodeResidualInto adds the coded residual onto pred in place.
func decodeResidualInto(r *bitstream.Reader, pred *frame.Frame, quality int) error {
	return decodeResidualWithCapture(r, pred, quality, nil)
}

// decodeResidualWithCapture adds the coded residual onto pred in place
// and, when capture is non-nil, also stores the residual samples in
// biased (+128) form into capture.
func decodeResidualWithCapture(r *bitstream.Reader, pred *frame.Frame, quality int, capture *frame.Frame) error {
	table := &transform.QuantizerFor(quality).Table
	pp := pred.Planes()
	var cp [3]*frame.Plane
	if capture != nil {
		cp = capture.Planes()
	}
	for pi, p := range pp {
		nbx, _, n := planeBlocks(p)
		if par.Workers() == 1 {
			// Single worker: fuse parsing and reconstruction per block.
			scan := make([]int32, 64)
			cplane := cp[pi]
			var b transform.Block
			for i := 0; i < n; i++ {
				bx, by := (i%nbx)*transform.BlockSize, (i/nbx)*transform.BlockSize
				if err := bitstream.ReadCoeffs(r, scan); err != nil {
					return fmt.Errorf("vcodec: residual block (%d,%d): %w", bx, by, err)
				}
				// All-zero blocks (static content) reconstruct to a zero
				// residual: addBlock would add 0 and re-clamp in-range
				// samples, and capture planes are pre-filled with the 128
				// bias storeShifted would write — both exact no-ops.
				if allZero(scan) {
					continue
				}
				transform.UnzigzagDequant(&b, scan, table)
				transform.IDCT(&b, &b)
				addBlock(&b, p, bx, by)
				if capture != nil {
					storeShifted(&b, cplane, bx, by)
				}
			}
			continue
		}
		coeffs := coeffPool.Get(n * 64)
		for i := 0; i < n; i++ {
			if err := bitstream.ReadCoeffs(r, coeffs[i*64:(i+1)*64]); err != nil {
				bx, by := (i%nbx)*transform.BlockSize, (i/nbx)*transform.BlockSize
				coeffPool.Put(coeffs)
				return fmt.Errorf("vcodec: residual block (%d,%d): %w", bx, by, err)
			}
		}
		residualLoop.For(n, blockGrain, blockArgs{coeffs: coeffs, table: table, p: p, capture: cp[pi], nbx: nbx})
		coeffPool.Put(coeffs)
	}
	return nil
}

// blockArgs is what the parallel phase of a plane decode reads: the
// plane's staged coefficients (64 per block, raster order), its
// dequantization table, the plane it reconstructs into, the optional
// plane the residual is captured into, and the plane's width in blocks.
type blockArgs struct {
	coeffs     []int32
	table      *[64]int32
	p, capture *frame.Plane
	nbx        int
}

// intraLoop stores the reconstruction of blocks [lo, hi) of a key frame.
var intraLoop = par.Loop[blockArgs]{Body: func(a *blockArgs, lo, hi int) {
	var b transform.Block
	for i := lo; i < hi; i++ {
		bx, by := (i%a.nbx)*transform.BlockSize, (i/a.nbx)*transform.BlockSize
		transform.UnzigzagDequant(&b, a.coeffs[i*64:(i+1)*64], a.table)
		transform.IDCT(&b, &b)
		storeShifted(&b, a.p, bx, by)
	}
}}

// residualLoop adds the residual of blocks [lo, hi) onto the prediction
// and, with a capture plane, stores it there in biased form.
var residualLoop = par.Loop[blockArgs]{Body: func(a *blockArgs, lo, hi int) {
	var b transform.Block
	for i := lo; i < hi; i++ {
		scan := a.coeffs[i*64 : (i+1)*64]
		// Same all-zero skip as the fused path.
		if allZero(scan) {
			continue
		}
		bx, by := (i%a.nbx)*transform.BlockSize, (i/a.nbx)*transform.BlockSize
		transform.UnzigzagDequant(&b, scan, a.table)
		transform.IDCT(&b, &b)
		addBlock(&b, a.p, bx, by)
		if a.capture != nil {
			storeShifted(&b, a.capture, bx, by)
		}
	}
}}

// allZero reports whether every coefficient in a 64-entry scan is zero.
func allZero(scan []int32) bool {
	or := int32(0)
	for _, c := range scan[:64] {
		or |= c
	}
	return or == 0
}

func storeShifted(b *transform.Block, p *frame.Plane, bx, by int) {
	bs := transform.BlockSize
	for y := 0; y < bs && by+y < p.H; y++ {
		for x := 0; x < bs && bx+x < p.W; x++ {
			v := b[y*bs+x] + 128
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			p.Set(bx+x, by+y, byte(v))
		}
	}
}

func addBlock(b *transform.Block, p *frame.Plane, bx, by int) {
	bs := transform.BlockSize
	if bx+bs <= p.W && by+bs <= p.H {
		// Interior block: straight row updates, no per-sample bound checks.
		for y := 0; y < bs; y++ {
			row := p.Row(by + y)[bx : bx+bs]
			o := y * bs
			for x := range row {
				v := int32(row[x]) + b[o+x]
				if v < 0 {
					v = 0
				} else if v > 255 {
					v = 255
				}
				row[x] = byte(v)
			}
		}
		return
	}
	for y := 0; y < bs && by+y < p.H; y++ {
		for x := 0; x < bs && bx+x < p.W; x++ {
			v := int32(p.At(bx+x, by+y)) + b[y*bs+x]
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			p.Set(bx+x, by+y, byte(v))
		}
	}
}

// decodeIntraFromPacket is the encoder's closed-loop helper: parse a key
// packet we just produced and return its reconstruction.
func decodeIntraFromPacket(data []byte, w, h int) *frame.Frame {
	r := bitstream.NewReader(data)
	_, _ = r.ReadBits(2)
	q, _ := r.ReadBits(7)
	_, _ = r.ReadUE()
	f, err := decodeIntraPlanes(r, w, h, int(q))
	if err != nil {
		// The encoder parsing its own output cannot fail; treat it as a
		// programming error.
		panic(fmt.Sprintf("vcodec: closed-loop intra decode: %v", err))
	}
	return f
}

// applyResidualFromPacket is the encoder's closed-loop helper for inter
// packets: skip the header and motion section, then add the residual onto
// pred.
func applyResidualFromPacket(data []byte, pred *frame.Frame, grid frame.BlockGrid, quality int) {
	r := bitstream.NewReader(data)
	_, _ = r.ReadBits(2 + 7)
	_, _ = r.ReadUE()
	for i := 0; i < grid.NumBlocks(); i++ {
		_, _ = r.ReadBit()
		_, _ = r.ReadSE()
		_, _ = r.ReadSE()
	}
	if err := decodeResidualInto(r, pred, quality); err != nil {
		panic(fmt.Sprintf("vcodec: closed-loop residual decode: %v", err))
	}
}
