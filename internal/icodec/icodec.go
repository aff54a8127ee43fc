// Package icodec is the intra-only image codec used by the hybrid encoder
// to compress super-resolved anchor frames (the role JPEG2000/libjpeg play
// in the paper). It codes 8×8 DCT blocks per plane with a JPEG-style
// quality knob, DC prediction across blocks, and zero-run entropy coding.
package icodec

import (
	"errors"
	"fmt"

	"github.com/neuroscaler/neuroscaler/internal/bitstream"
	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/transform"
)

// coeffPool recycles the per-plane coefficient staging buffers of the
// two-phase (parallel transform, serial entropy) coding loops below.
var coeffPool par.SlabPool[int32]

// blockGrain is how many 8×8 blocks one worker claims at a time.
const blockGrain = 16

// version 2 is the fixed-point transform. Version 1 streams were coded
// with a float DCT that the integer IDCT reconstructs within ±1 but not
// exactly, so they are refused rather than decoded with drift.
const (
	magic   = 0x4E53_4952 // "NSIR"
	version = 2
)

// Options configures the encoder.
type Options struct {
	// Quality in [1, 100]; higher is better quality / larger output.
	Quality int
}

// Stats reports the work the encoder performed; the cluster cost model
// converts block counts into virtual CPU time.
type Stats struct {
	Bytes        int
	BlocksCoded  int
	NonZeroCoefs int
}

// Encode compresses f and returns the bitstream plus encoding statistics.
// It is Append on a nil buffer.
func Encode(f *frame.Frame, opts Options) ([]byte, Stats, error) {
	return Append(nil, f, opts)
}

// Append compresses f onto the end of dst and returns the extended
// buffer, as Encode returns its bitstream; Stats.Bytes counts the bytes
// appended. Given Reserve(f.W, f.H, opts.Quality) bytes of spare capacity
// in dst it allocates nothing for any frame whose code fits that room, so
// a caller that recycles its buffers encodes without garbage.
func Append(dst []byte, f *frame.Frame, opts Options) ([]byte, Stats, error) {
	if opts.Quality < 1 || opts.Quality > 100 {
		return dst, Stats{}, fmt.Errorf("icodec: quality %d out of [1, 100]", opts.Quality)
	}
	w := bitstream.AppendWriter(dst)
	// One allocation up front instead of append-doubling through a dozen.
	w.Grow(Reserve(f.W, f.H, opts.Quality))
	w.WriteBits(magic, 32)
	w.WriteBits(version, 8)
	w.WriteBits(uint64(f.W), 16)
	w.WriteBits(uint64(f.H), 16)
	w.WriteBits(uint64(opts.Quality), 8)
	table := transform.QuantizerFor(opts.Quality)
	var st Stats
	for _, p := range f.Planes() {
		encodePlane(&w, p, table, &st)
	}
	buf := w.Bytes()
	st.Bytes = len(buf) - len(dst)
	return buf, st, nil
}

// Reserve is the output room Append reserves for a w×h frame at quality:
// enough for every content the system generates, whose coded size per
// luma sample tops out near 0.19 bytes at quality 85, 0.23 at 90, 0.40 at
// 95 and 0.76 at 100 (the six synth profiles, both benchmark geometries),
// so coding one anchor is one allocation at most. A busier frame grows
// the buffer from there.
func Reserve(w, h, quality int) int {
	px := w * h
	switch {
	case quality <= 85:
		return px/4 + 64
	case quality <= 90:
		return px*3/8 + 64
	case quality <= 95:
		return px/2 + 64
	default:
		return px + 64
	}
}

// encodePlane codes one plane in two phases: every block's forward
// transform and quantization runs concurrently into a staging buffer
// (blocks are independent until DC prediction), then a serial raster-order
// pass applies DC prediction and writes the bitstream, keeping the output
// bit-identical for any worker count.
//
// Each block is coded once: quantization writes straight into zigzag
// order and counts the block's non-zero coefficients in the same pass, so
// the serial pass only corrects that count for the DC it predicts.
func encodePlane(w *bitstream.Writer, p *frame.Plane, table *transform.Quantizer, st *Stats) {
	bs := transform.BlockSize
	nbx := (p.W + bs - 1) / bs
	nby := (p.H + bs - 1) / bs
	n := nbx * nby
	st.BlocksCoded += n
	writeBlock := func(scan []int32, prevDC int32) int32 {
		// DC prediction: code the delta from the previous block's DC, which
		// sits at scan position 0. The quantizer counted the DC itself as
		// coded; count the delta that is coded instead.
		dc := scan[0]
		scan[0] -= prevDC
		if dc != 0 {
			st.NonZeroCoefs--
		}
		if scan[0] != 0 {
			st.NonZeroCoefs++
		}
		bitstream.WriteCoeffs(w, scan)
		return dc
	}
	if par.Workers() == 1 {
		// Single worker: fuse the phases and skip the staging buffer.
		prevDC := int32(0)
		scan := make([]int32, 64)
		var b transform.Block
		for i := 0; i < n; i++ {
			loadBlock(&b, p, (i%nbx)*bs, (i/nbx)*bs)
			transform.FDCT(&b, &b)
			st.NonZeroCoefs += table.QuantizeZigzag(scan, &b)
			prevDC = writeBlock(scan, prevDC)
		}
		return
	}
	// The staging slab holds each block's 64 coefficients, then one slot
	// per block for its non-zero count, so the parallel pass shares no
	// counter.
	staging := coeffPool.Get(n * 65)
	encodeLoop.For(n, blockGrain, encodeArgs{staging: staging, p: p, table: table, nbx: nbx, n: n})
	prevDC := int32(0)
	for i := 0; i < n; i++ {
		st.NonZeroCoefs += int(staging[n*64+i])
		prevDC = writeBlock(staging[i*64:(i+1)*64], prevDC)
	}
	coeffPool.Put(staging)
}

// encodeArgs is encodePlane's arguments to encodeLoop: the staging slab,
// the plane, its quantizer, its width in blocks and its block count.
type encodeArgs struct {
	staging []int32
	p       *frame.Plane
	table   *transform.Quantizer
	nbx, n  int
}

// encodeLoop transforms and quantizes blocks [lo, hi) into the staging
// slab: each block's 64 zigzag coefficients, then its non-zero count.
var encodeLoop = par.Loop[encodeArgs]{Body: func(a *encodeArgs, lo, hi int) {
	bs := transform.BlockSize
	var b transform.Block
	for i := lo; i < hi; i++ {
		loadBlock(&b, a.p, (i%a.nbx)*bs, (i/a.nbx)*bs)
		transform.FDCT(&b, &b)
		a.staging[a.n*64+i] = int32(a.table.QuantizeZigzag(a.staging[i*64:(i+1)*64], &b))
	}
}}

func loadBlock(b *transform.Block, p *frame.Plane, bx, by int) {
	bs := transform.BlockSize
	if bx+bs <= p.W && by+bs <= p.H {
		// Interior block: straight row copies, no per-sample clamping.
		for y := 0; y < bs; y++ {
			row := p.Row(by + y)[bx : bx+bs]
			o := y * bs
			for x, v := range row {
				b[o+x] = int32(v) - 128
			}
		}
		return
	}
	for y := 0; y < bs; y++ {
		for x := 0; x < bs; x++ {
			// Clamped At extends edges for partial blocks.
			b[y*bs+x] = int32(p.At(bx+x, by+y)) - 128
		}
	}
}

// Decode decompresses a bitstream produced by Encode.
func Decode(data []byte) (*frame.Frame, error) {
	r := bitstream.NewReader(data)
	m, err := r.ReadBits(32)
	if err != nil || m != magic {
		return nil, errors.New("icodec: bad magic")
	}
	v, err := r.ReadBits(8)
	if err != nil || v != version {
		return nil, fmt.Errorf("icodec: unsupported version %d", v)
	}
	wdt, err := r.ReadBits(16)
	if err != nil {
		return nil, err
	}
	hgt, err := r.ReadBits(16)
	if err != nil {
		return nil, err
	}
	q, err := r.ReadBits(8)
	if err != nil {
		return nil, err
	}
	if q < 1 || q > 100 {
		return nil, fmt.Errorf("icodec: corrupt quality %d", q)
	}
	f, err := frame.New(int(wdt), int(hgt))
	if err != nil {
		return nil, fmt.Errorf("icodec: corrupt dimensions: %w", err)
	}
	table := &transform.QuantizerFor(int(q)).Table
	for _, p := range f.Planes() {
		if err := decodePlane(r, p, table); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// decodePlane mirrors encodePlane: serial variable-length parsing into a
// staging buffer (resolving DC prediction at scan position 0), then a
// parallel dequantize/IDCT/store pass over disjoint blocks.
func decodePlane(r *bitstream.Reader, p *frame.Plane, table *[64]int32) error {
	bs := transform.BlockSize
	nbx := (p.W + bs - 1) / bs
	nby := (p.H + bs - 1) / bs
	n := nbx * nby
	if par.Workers() == 1 {
		// Single worker: fuse parsing and reconstruction per block.
		scan := make([]int32, 64)
		prevDC := int32(0)
		var b transform.Block
		for i := 0; i < n; i++ {
			if err := bitstream.ReadCoeffs(r, scan); err != nil {
				return fmt.Errorf("icodec: block (%d,%d): %w", (i%nbx)*bs, (i/nbx)*bs, err)
			}
			scan[0] += prevDC
			prevDC = scan[0]
			transform.UnzigzagDequant(&b, scan, table)
			transform.IDCT(&b, &b)
			storeBlock(&b, p, (i%nbx)*bs, (i/nbx)*bs)
		}
		return nil
	}
	coeffs := coeffPool.Get(n * 64)
	prevDC := int32(0)
	for i := 0; i < n; i++ {
		scan := coeffs[i*64 : (i+1)*64]
		if err := bitstream.ReadCoeffs(r, scan); err != nil {
			coeffPool.Put(coeffs)
			return fmt.Errorf("icodec: block (%d,%d): %w", (i%nbx)*bs, (i/nbx)*bs, err)
		}
		scan[0] += prevDC
		prevDC = scan[0]
	}
	decodeLoop.For(n, blockGrain, decodeArgs{coeffs: coeffs, table: table, p: p, nbx: nbx})
	coeffPool.Put(coeffs)
	return nil
}

// decodeArgs is decodePlane's arguments to decodeLoop: the staged
// coefficients, the dequantization table, the plane and its width in
// blocks.
type decodeArgs struct {
	coeffs []int32
	table  *[64]int32
	p      *frame.Plane
	nbx    int
}

// decodeLoop dequantizes, inverse-transforms and stores blocks [lo, hi).
var decodeLoop = par.Loop[decodeArgs]{Body: func(a *decodeArgs, lo, hi int) {
	bs := transform.BlockSize
	var b transform.Block
	for i := lo; i < hi; i++ {
		transform.UnzigzagDequant(&b, a.coeffs[i*64:(i+1)*64], a.table)
		transform.IDCT(&b, &b)
		storeBlock(&b, a.p, (i%a.nbx)*bs, (i/a.nbx)*bs)
	}
}}

func storeBlock(b *transform.Block, p *frame.Plane, bx, by int) {
	bs := transform.BlockSize
	if bx+bs <= p.W && by+bs <= p.H {
		// Interior block: straight row stores, no per-sample bound checks.
		for y := 0; y < bs; y++ {
			row := p.Row(by + y)[bx : bx+bs]
			o := y * bs
			for x := range row {
				v := b[o+x] + 128
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
	for y := 0; y < bs; y++ {
		if by+y >= p.H {
			break
		}
		for x := 0; x < bs; x++ {
			if bx+x >= p.W {
				break
			}
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

// Validate parses a bitstream produced by Encode without reconstructing
// pixels and returns the coded dimensions. It fails on exactly the inputs
// Decode fails on: entropy parsing is the only fallible stage, so walking
// every block's coefficient codes — skipping them, not storing them —
// checks decodability at a fraction of the cost of dequantization and the
// inverse transform.
func Validate(data []byte) (int, int, error) {
	r := bitstream.NewReader(data)
	m, err := r.ReadBits(32)
	if err != nil || m != magic {
		return 0, 0, errors.New("icodec: bad magic")
	}
	v, err := r.ReadBits(8)
	if err != nil || v != version {
		return 0, 0, fmt.Errorf("icodec: unsupported version %d", v)
	}
	wdt, err := r.ReadBits(16)
	if err != nil {
		return 0, 0, err
	}
	hgt, err := r.ReadBits(16)
	if err != nil {
		return 0, 0, err
	}
	q, err := r.ReadBits(8)
	if err != nil {
		return 0, 0, err
	}
	if q < 1 || q > 100 {
		return 0, 0, fmt.Errorf("icodec: corrupt quality %d", q)
	}
	w, h := int(wdt), int(hgt)
	if w <= 0 || h <= 0 {
		return 0, 0, errors.New("icodec: corrupt dimensions")
	}
	bs := transform.BlockSize
	cw, ch := (w+1)/2, (h+1)/2
	for _, d := range [3][2]int{{w, h}, {cw, ch}, {cw, ch}} {
		nbx := (d[0] + bs - 1) / bs
		nby := (d[1] + bs - 1) / bs
		for i := 0; i < nbx*nby; i++ {
			if err := bitstream.SkipCoeffs(r, 64); err != nil {
				return 0, 0, fmt.Errorf("icodec: block (%d,%d): %w", (i%nbx)*bs, (i/nbx)*bs, err)
			}
		}
	}
	return w, h, nil
}

// EncodeToSize searches for the highest quality whose output does not
// exceed maxBytes, implementing the hybrid encoder's "each anchor frame
// size is equally set to meet the bitrate constraint" rule. It returns
// the encoded stream, the quality used, and stats. If even quality 1
// exceeds maxBytes the quality-1 stream is returned with an error.
func EncodeToSize(f *frame.Frame, maxBytes int) ([]byte, int, Stats, error) {
	lo, hi := 1, 100
	var best []byte
	var bestQ int
	var bestStats Stats
	for lo <= hi {
		mid := (lo + hi) / 2
		data, st, err := Encode(f, Options{Quality: mid})
		if err != nil {
			return nil, 0, Stats{}, err
		}
		if len(data) <= maxBytes {
			best, bestQ, bestStats = data, mid, st
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best == nil {
		data, st, err := Encode(f, Options{Quality: 1})
		if err != nil {
			return nil, 0, Stats{}, err
		}
		return data, 1, st, fmt.Errorf("icodec: cannot meet %d-byte budget (min %d)", maxBytes, len(data))
	}
	return best, bestQ, bestStats, nil
}
