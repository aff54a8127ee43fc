// Package bitstream provides bit-level serialization used by the video and
// image codecs: a Writer/Reader pair for raw bit I/O, unsigned and signed
// Exp-Golomb codes for syntax elements with geometric distributions, and a
// zero-run/level code for quantized transform coefficients.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// ErrTruncated reports a read past the end of the stream.
var ErrTruncated = errors.New("bitstream: truncated")

// Writer accumulates bits most-significant first into a byte slice.
// The zero value is ready to use. Pending bits collect in a 64-bit
// accumulator; whole bytes flush to the buffer, keeping fewer than 8
// bits pending between calls.
type Writer struct {
	buf  []byte
	bits uint8 // number of bits pending in cur, always < 8 between calls
	cur  uint64
}

// AppendWriter returns a Writer whose output follows buf's contents:
// Bytes returns buf extended by everything written, in buf's storage
// while its capacity lasts.
func AppendWriter(buf []byte) Writer { return Writer{buf: buf} }

// Grow ensures room for n more bytes without another allocation, for
// callers that can bound their output up front. Output bytes are
// unaffected. n must not be negative.
func (w *Writer) Grow(n int) {
	w.buf = slices.Grow(w.buf, n)
}

// flush moves every complete byte from the accumulator to the buffer.
func (w *Writer) flush() {
	for w.bits >= 8 {
		w.bits -= 8
		w.buf = append(w.buf, byte(w.cur>>w.bits))
	}
}

// WriteBit appends a single bit (any non-zero b is written as 1).
func (w *Writer) WriteBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.bits++
	if w.bits == 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.bits = 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n > 56 {
		// Split so the accumulator (holding up to 7 pending bits) never
		// overflows.
		w.WriteBits(v>>32, n-32)
		v &= 1<<32 - 1
		n = 32
	}
	w.cur = w.cur<<uint(n) | v&(1<<uint(n)-1)
	w.bits += uint8(n)
	w.flush()
}

// WriteUE appends v as an unsigned Exp-Golomb code.
func (w *Writer) WriteUE(v uint64) {
	// The code is n zeros followed by the n+1 bits of x (whose top bit is
	// 1), which is exactly x written in 2n+1 bits.
	x := v + 1
	n := bits.Len64(x) - 1
	w.WriteBits(x, 2*n+1)
}

// WriteSE appends v as a signed Exp-Golomb code (zig-zag mapped).
func (w *Writer) WriteSE(v int64) {
	var u uint64
	if v > 0 {
		u = uint64(2*v - 1)
	} else {
		u = uint64(-2 * v)
	}
	w.WriteUE(u)
}

// Len returns the number of complete bytes written so far, excluding any
// pending partial byte.
func (w *Writer) Len() int { return len(w.buf) }

// BitLen returns the total number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.bits) }

// Bytes flushes the pending partial byte (padding with zero bits) and
// returns the accumulated buffer. The Writer remains usable; subsequent
// writes continue on a byte boundary.
func (w *Writer) Bytes() []byte {
	if w.bits > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.bits)))
		w.cur, w.bits = 0, 0
	}
	return w.buf
}

// Reset discards all written data.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.bits = 0, 0
}

// Reader consumes bits most-significant first from a byte slice.
type Reader struct {
	buf []byte
	pos int // bit position
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (int, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, ErrTruncated
	}
	bit := int(r.buf[byteIdx]>>(7-uint(r.pos&7))) & 1
	r.pos++
	return bit, nil
}

// ReadBits returns the next n bits as an unsigned integer. n must be in
// [0, 64]. Bits are gathered up to a byte at a time.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	end := r.pos + n
	if end > len(r.buf)<<3 {
		return 0, ErrTruncated
	}
	pos := r.pos
	if n <= 56 && pos>>3+8 <= len(r.buf) {
		// Fast path: a single unaligned 64-bit load covers the whole read.
		// After discarding the sub-byte offset the word holds at least 57
		// valid bits, so any n <= 56 extracts with two shifts.
		word := binary.BigEndian.Uint64(r.buf[pos>>3:])
		r.pos = end
		return word << uint(pos&7) >> uint(64-n), nil
	}
	var v uint64
	for n > 0 {
		avail := 8 - pos&7
		take := avail
		if n < take {
			take = n
		}
		chunk := (uint32(r.buf[pos>>3]) >> uint(avail-take)) & ((1 << uint(take)) - 1)
		v = v<<uint(take) | uint64(chunk)
		pos += take
		n -= take
	}
	r.pos = pos
	return v, nil
}

// ReadUE reads an unsigned Exp-Golomb code.
func (r *Reader) ReadUE() (uint64, error) {
	total := len(r.buf) << 3
	pos := r.pos
	if pos>>3+8 <= len(r.buf) {
		// Fast path: one unaligned 64-bit load. Shifting off the sub-byte
		// offset leaves zeros below the valid bits, so a non-zero word puts
		// the terminating 1 inside the loaded window and the whole
		// code — n zeros, the 1, and n payload bits — decodes from the word
		// when 2n+1 fits the valid span.
		word := binary.BigEndian.Uint64(r.buf[pos>>3:]) << uint(pos&7)
		if word != 0 {
			n := bits.LeadingZeros64(word)
			if 2*n+1 <= 64-pos&7 {
				x := word << uint(n) >> uint(63-n)
				r.pos = pos + 2*n + 1
				return x - 1, nil
			}
		}
	}
	// Scan the zero prefix a byte at a time: within a byte, the remaining
	// unread bits sit in the high positions after the shift, so a non-zero
	// value locates the terminating 1 via its leading-zero count.
	n := 0
	for {
		if pos >= total {
			return 0, ErrTruncated
		}
		b := r.buf[pos>>3] << uint(pos&7)
		if b != 0 {
			z := bits.LeadingZeros8(b)
			n += z
			pos += z
			break
		}
		skip := 8 - pos&7
		n += skip
		pos += skip
		if n > 63 {
			return 0, fmt.Errorf("bitstream: exp-golomb prefix too long (%d zeros)", n)
		}
	}
	if n > 63 {
		return 0, fmt.Errorf("bitstream: exp-golomb prefix too long (%d zeros)", n)
	}
	r.pos = pos + 1 // consume the terminating 1
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return (1<<uint(n) | rest) - 1, nil
}

// ReadSE reads a signed Exp-Golomb code.
func (r *Reader) ReadSE() (int64, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u&1 == 1 {
		return int64(u/2) + 1, nil
	}
	return -int64(u / 2), nil
}

// AlignByte skips to the next byte boundary.
func (r *Reader) AlignByte() {
	if rem := r.pos & 7; rem != 0 {
		r.pos += 8 - rem
	}
}

// BitsRead returns the number of bits consumed so far.
func (r *Reader) BitsRead() int { return r.pos }
