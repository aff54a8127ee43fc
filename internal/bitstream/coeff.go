package bitstream

import (
	"encoding/binary"
	"math/bits"
)

// Coefficient coding: quantized, zigzag-ordered transform coefficients are
// dominated by zero runs, so they are stored as (run, level) pairs with an
// explicit end-of-block marker. Runs use unsigned Exp-Golomb, levels signed
// Exp-Golomb. This is the shared entropy stage for both codecs.

// WriteCoeffs appends a (run, level) coding of coeffs to w. A trailing
// all-zero suffix costs a single end-of-block code.
//
// Groups collect in a local accumulator holding fewer than 32 pending
// bits and leave it 32 bits at a time; the Writer's own state (fewer than
// 8 pending bits) is restored before any general write and on return, so
// the output is bit-identical to writing every code separately.
func WriteCoeffs(w *Writer, coeffs []int32) {
	buf, cur, nb := w.buf, w.cur, uint(w.bits)
	run := uint64(0)
	for _, c := range coeffs {
		if c == 0 {
			run++
			continue
		}
		// The present bit, the run's unsigned Exp-Golomb code and the
		// level's signed Exp-Golomb code, concatenated into one value.
		ux := run + 1
		ueBits := uint(2*bits.Len64(ux) - 1)
		var su uint64
		if c > 0 {
			su = uint64(2*int64(c) - 1)
		} else {
			su = uint64(-2 * int64(c))
		}
		sx := su + 1
		seBits := uint(2*bits.Len64(sx) - 1)
		run = 0
		if n := 1 + ueBits + seBits; n <= 32 {
			cur = cur<<n | (1<<ueBits|ux)<<seBits | sx
			if nb += n; nb >= 32 {
				nb -= 32
				buf = binary.BigEndian.AppendUint32(buf, uint32(cur>>nb))
			}
			continue
		}
		w.setPending(buf, cur, nb)
		w.WriteBit(1)
		w.WriteUE(ux - 1)
		w.WriteSE(int64(c))
		buf, cur, nb = w.buf, w.cur, uint(w.bits)
	}
	cur <<= 1 // end of block
	w.setPending(buf, cur, nb+1)
}

// setPending stores an accumulator of nb pending bits in cur (the low nb
// bits) after buf back into w, moving whole bytes to the buffer.
func (w *Writer) setPending(buf []byte, cur uint64, nb uint) {
	for nb >= 8 {
		nb -= 8
		buf = append(buf, byte(cur>>nb))
	}
	w.buf, w.cur, w.bits = buf, cur, uint8(nb)
}

// groupBits is the width of the window groupTable decodes: every
// (present, run, level) group of at most this many bits, and the
// end-of-block bit, is one table lookup. Groups are 1 + two odd-length
// codes long, so always odd; an odd width wastes no table entry.
const groupBits = 13

// coeffGroup is one decoded group: its length in bits (0 when the group
// does not fit the window; 1 only for the end-of-block bit), its zero run
// and its level.
type coeffGroup struct {
	bits  uint8
	run   uint8
	level int16
}

// groupTable maps every groupBits-bit window to the group it starts with,
// decoded by the same Exp-Golomb rules as ReadUE and ReadSE.
var groupTable = func() (t [1 << groupBits]coeffGroup) {
	for i := range t {
		w := uint64(i) << (64 - groupBits)
		if w>>63 == 0 {
			t[i] = coeffGroup{bits: 1}
			continue
		}
		// ue(run) then se(level), each n zeros, a 1 and n payload bits.
		rw := w << 1
		rz := bits.LeadingZeros64(rw)
		lw := rw << uint(2*rz+1)
		lz := bits.LeadingZeros64(lw)
		n := 1 + 2*rz + 1 + 2*lz + 1
		if rw == 0 || lw == 0 || n > groupBits {
			continue
		}
		u := lw<<uint(lz)>>uint(63-lz) - 1
		level := -int16(u / 2)
		if u&1 == 1 {
			level = int16(u/2) + 1
		}
		t[i] = coeffGroup{bits: uint8(n), run: uint8(rw<<uint(rz)>>uint(63-rz) - 1), level: level}
	}
	return t
}()

// ReadCoeffs reads a (run, level) coding into dst, which determines the
// block size. Coefficients past the end-of-block marker are zero.
//
// The fast path decodes successive groups out of one unaligned 64-bit
// load through groupTable — consuming exactly the bits the general
// ReadBit/ReadUE/ReadSE sequence would — and falls back to that sequence
// near the end of the buffer or for groups longer than the table's window.
func ReadCoeffs(r *Reader, dst []int32) error {
	for i := range dst {
		dst[i] = 0
	}
	return parseCoeffs(r, dst, len(dst))
}

// SkipCoeffs consumes the (run, level) coding of an n-coefficient block
// without storing it: it advances r by exactly the bits ReadCoeffs would
// and returns exactly its errors. Parse-only validators use it to check
// a block's coding without paying for the coefficient writes.
func SkipCoeffs(r *Reader, n int) error {
	return parseCoeffs(r, nil, n)
}

// parseCoeffs is the one coefficient parser behind ReadCoeffs and
// SkipCoeffs: it walks an n-coefficient block's groups and, when dst is
// non-nil, stores each level at its scan position.
func parseCoeffs(r *Reader, dst []int32, n int) error {
	buf := r.buf
	idx := 0
	for {
		pos := r.pos
		if pos>>3+8 <= len(buf) {
			// Shifting off the sub-byte offset leaves at least 57 valid bits;
			// decode table-sized groups until fewer than a window remain.
			word := binary.BigEndian.Uint64(buf[pos>>3:]) << uint(pos&7)
			for left := 64 - pos&7; left >= groupBits; {
				g := groupTable[word>>(64-groupBits)]
				if g.bits == 0 {
					break
				}
				pos += int(g.bits)
				left -= int(g.bits)
				word <<= g.bits
				if g.bits == 1 {
					r.pos = pos
					return nil
				}
				if uint64(g.run) >= uint64(n-idx) {
					r.pos = pos
					return ErrTruncated
				}
				idx += int(g.run)
				if dst != nil {
					dst[idx] = int32(g.level)
				}
				idx++
			}
			r.pos = pos
		}
		present, err := r.ReadBit()
		if err != nil {
			return err
		}
		if present == 0 {
			return nil
		}
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		level, err := r.ReadSE()
		if err != nil {
			return err
		}
		if run >= uint64(n-idx) {
			return ErrTruncated
		}
		idx += int(run)
		if dst != nil {
			dst[idx] = int32(level)
		}
		idx++
	}
}
