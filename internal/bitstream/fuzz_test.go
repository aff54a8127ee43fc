package bitstream

import (
	"math/rand"
	"slices"
	"testing"
)

// errString renders err for comparison, nil as the empty string.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// referenceReadCoeffs is the coefficient syntax read one element at a
// time — a present bit, ue(run), se(level), until a zero present bit —
// with no table and no peeking: the definition ReadCoeffs and SkipCoeffs
// must match bit for bit and error for error.
func referenceReadCoeffs(r *Reader, dst []int32) error {
	clear(dst)
	idx := 0
	for {
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
		if run >= uint64(len(dst)-idx) {
			return ErrTruncated
		}
		idx += int(run)
		dst[idx] = int32(level)
		idx++
	}
}

// requireParsersAgree walks data as consecutive n-coefficient blocks with
// the reference, ReadCoeffs and SkipCoeffs side by side until the first
// failure or the end of data: at every block all three must return the
// same error and stop at the same bit, and ReadCoeffs must store the
// reference's coefficients.
func requireParsersAgree(t *testing.T, data []byte, n int) {
	t.Helper()
	ref, read, skip := NewReader(data), NewReader(data), NewReader(data)
	want, got := make([]int32, n), make([]int32, n)
	for i := range got {
		got[i] = 7 // ReadCoeffs must clear what it does not set
	}
	for block := 0; ; block++ {
		werr := referenceReadCoeffs(ref, want)
		rerr := ReadCoeffs(read, got)
		serr := SkipCoeffs(skip, n)
		if errString(rerr) != errString(werr) || errString(serr) != errString(werr) {
			t.Fatalf("block %d: reference err %v, ReadCoeffs err %v, SkipCoeffs err %v", block, werr, rerr, serr)
		}
		if read.BitsRead() != ref.BitsRead() || skip.BitsRead() != ref.BitsRead() {
			t.Fatalf("block %d: reference at bit %d, ReadCoeffs at %d, SkipCoeffs at %d",
				block, ref.BitsRead(), read.BitsRead(), skip.BitsRead())
		}
		if werr != nil {
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("block %d: ReadCoeffs %v, reference %v", block, got, want)
		}
		if ref.BitsRead() >= 8*len(data) {
			return
		}
	}
}

// TestCoeffParsersMatchReference runs the differential check over valid
// codings of random blocks (short and long codes, dense and sparse),
// their truncations, and random bytes.
func TestCoeffParsersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		var w Writer
		for b := 0; b < 1+rng.Intn(8); b++ {
			block := make([]int32, n)
			for i := range block {
				switch rng.Intn(4) {
				case 0:
					block[i] = int32(rng.Intn(5) - 2)
				case 1:
					block[i] = int32(rng.Intn(1<<uint(rng.Intn(20))) - 1<<uint(rng.Intn(19)))
				}
			}
			WriteCoeffs(&w, block)
		}
		good := w.Bytes()
		requireParsersAgree(t, good, n)
		requireParsersAgree(t, good[:rng.Intn(len(good)+1)], n)
		noise := make([]byte, rng.Intn(40))
		rng.Read(noise)
		requireParsersAgree(t, noise, n)
	}
}

// FuzzSkipCoeffs pins SkipCoeffs and ReadCoeffs to the element-at-a-time
// reference over arbitrary bytes and block sizes.
func FuzzSkipCoeffs(f *testing.F) {
	var w Writer
	WriteCoeffs(&w, []int32{5, 0, -3, 0, 0, 1})
	WriteCoeffs(&w, make([]int32, 64))
	big := make([]int32, 64)
	big[0], big[63] = 1<<20, -7
	WriteCoeffs(&w, big)
	good := w.Bytes()
	f.Add(good, uint8(64))
	f.Add(good[:len(good)/2], uint8(64))
	f.Add(good, uint8(4))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(64))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte("0\x00\x00\x00\x00\x00\x00\x00\x00"), uint8(10)) // over-long Exp-Golomb prefix
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		requireParsersAgree(t, data, int(size%128)+1)
	})
}
