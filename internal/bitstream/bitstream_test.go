package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xABCD, 16)
	w.WriteBit(1)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("ReadBits(4) = %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Errorf("ReadBits(16) = %x", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Errorf("ReadBit = %d", v)
	}
}

func TestBytesPadsWithZeros(t *testing.T) {
	var w Writer
	w.WriteBits(0b111, 3)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0b11100000 {
		t.Errorf("Bytes() = %08b", b)
	}
}

func TestBitLen(t *testing.T) {
	var w Writer
	w.WriteBits(0, 13)
	if w.BitLen() != 13 {
		t.Errorf("BitLen = %d, want 13", w.BitLen())
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d, want 1 (complete bytes only)", w.Len())
	}
}

func TestUEKnownValues(t *testing.T) {
	// Classic Exp-Golomb encodings.
	cases := []struct {
		v    uint64
		bits string
	}{
		{0, "1"},
		{1, "010"},
		{2, "011"},
		{3, "00100"},
		{7, "0001000"},
	}
	for _, tc := range cases {
		var w Writer
		w.WriteUE(tc.v)
		got := ""
		r := NewReader(w.Bytes())
		for i := 0; i < len(tc.bits); i++ {
			b, _ := r.ReadBit()
			got += string(rune('0' + b))
		}
		if got != tc.bits {
			t.Errorf("UE(%d) = %s, want %s", tc.v, got, tc.bits)
		}
	}
}

func TestUERoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{0, 1, 2, 3, 100, 65535, 1 << 32}
	for _, v := range vals {
		w.WriteUE(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.ReadUE()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("UE round trip %d -> %d", want, got)
		}
	}
}

func TestSERoundTrip(t *testing.T) {
	var w Writer
	vals := []int64{0, 1, -1, 2, -2, 1000, -1000, 1 << 30, -(1 << 30)}
	for _, v := range vals {
		w.WriteSE(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.ReadSE()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("SE round trip %d -> %d", want, got)
		}
	}
}

func TestReaderTruncated(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrTruncated {
		t.Errorf("ReadBits(9) on 1 byte: err = %v, want ErrTruncated", err)
	}
}

func TestReadUEBadPrefix(t *testing.T) {
	// 9 zero bytes: a prefix of 72 zeros must be rejected, not spin.
	r := NewReader(make([]byte, 9))
	if _, err := r.ReadUE(); err == nil {
		t.Error("ReadUE accepted absurd zero prefix")
	}
}

func TestAlignByte(t *testing.T) {
	r := NewReader([]byte{0x00, 0xFF})
	_, _ = r.ReadBits(3)
	r.AlignByte()
	if r.BitsRead() != 8 {
		t.Errorf("BitsRead after align = %d, want 8", r.BitsRead())
	}
	v, _ := r.ReadBits(8)
	if v != 0xFF {
		t.Errorf("post-align read = %x", v)
	}
	r.AlignByte() // aligning when aligned is a no-op
	if r.BitsRead() != 16 {
		t.Errorf("double align moved position to %d", r.BitsRead())
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	w.WriteBits(0x1, 1)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0x80 {
		t.Errorf("after Reset, Bytes() = %x", b)
	}
}

// TestWriterGrow pins the two halves of Grow's contract: the bytes are
// those of an unsized writer, and writes inside the reserved room do not
// reallocate.
func TestWriterGrow(t *testing.T) {
	write := func(w *Writer) []byte {
		for i := 0; i < 1000; i++ {
			w.WriteUE(uint64(i))
		}
		return w.Bytes()
	}
	var plain Writer
	want := write(&plain)
	var sized Writer
	sized.Grow(len(want))
	reserved := cap(sized.buf)
	if got := write(&sized); !bytes.Equal(got, want) {
		t.Error("Grow changed the output bytes")
	}
	if cap(sized.buf) != reserved {
		t.Errorf("writer reallocated inside its reserved room: cap %d -> %d", reserved, cap(sized.buf))
	}
}

func TestCoeffsRoundTrip(t *testing.T) {
	coeffs := []int32{90, 0, 0, -3, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}
	var w Writer
	WriteCoeffs(&w, coeffs)
	got := make([]int32, len(coeffs))
	if err := ReadCoeffs(NewReader(w.Bytes()), got); err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if got[i] != coeffs[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], coeffs[i])
		}
	}
}

// TestWriteCoeffsMatchesElementWrites pins WriteCoeffs's accumulator to
// the syntax written one element at a time — a present bit, ue(run),
// se(level) per non-zero coefficient, then the end-of-block bit — with
// raw bits of every length in between, so every pending-bit state and
// the long-code fallback are crossed.
func TestWriteCoeffsMatchesElementWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var got, want Writer
	for block := 0; block < 2000; block++ {
		pad, padBits := rng.Uint64(), rng.Intn(20)
		got.WriteBits(pad, padBits)
		want.WriteBits(pad, padBits)
		coeffs := make([]int32, 1+rng.Intn(64))
		for i := range coeffs {
			switch rng.Intn(5) {
			case 0:
				coeffs[i] = int32(rng.Intn(7) - 3)
			case 1:
				coeffs[i] = rng.Int31() >> uint(rng.Intn(31))
				if rng.Intn(2) == 0 {
					coeffs[i] = -coeffs[i]
				}
			}
		}
		WriteCoeffs(&got, coeffs)
		run := uint64(0)
		for _, c := range coeffs {
			if c == 0 {
				run++
				continue
			}
			want.WriteBit(1)
			want.WriteUE(run)
			want.WriteSE(int64(c))
			run = 0
		}
		want.WriteBit(0)
		if got.BitLen() != want.BitLen() {
			t.Fatalf("block %d: %d bits written, element writes made %d", block, got.BitLen(), want.BitLen())
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteCoeffs bytes differ from element-at-a-time writes")
	}
}

func TestCoeffsAllZeroIsTiny(t *testing.T) {
	var w Writer
	WriteCoeffs(&w, make([]int32, 64))
	if w.BitLen() != 1 {
		t.Errorf("all-zero block costs %d bits, want 1", w.BitLen())
	}
}

func TestCoeffsOverflowRejected(t *testing.T) {
	// Encode 3 coefficients, decode into a 2-slot block.
	var w Writer
	WriteCoeffs(&w, []int32{1, 1, 1})
	err := ReadCoeffs(NewReader(w.Bytes()), make([]int32, 2))
	if err == nil {
		t.Error("ReadCoeffs accepted more coefficients than block size")
	}
}

// Property: any []int16 block round-trips through WriteCoeffs/ReadCoeffs.
func TestQuickCoeffsRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		coeffs := make([]int32, len(raw))
		for i, v := range raw {
			coeffs[i] = int32(v)
		}
		var w Writer
		WriteCoeffs(&w, coeffs)
		got := make([]int32, len(coeffs))
		if err := ReadCoeffs(NewReader(w.Bytes()), got); err != nil {
			return false
		}
		for i := range coeffs {
			if got[i] != coeffs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved UE/SE sequences round-trip.
func TestQuickGolombRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		var w Writer
		ue := make([]uint64, count)
		se := make([]int64, count)
		for i := 0; i < count; i++ {
			ue[i] = uint64(rng.Intn(1 << 20))
			se[i] = int64(rng.Intn(1<<20) - 1<<19)
			w.WriteUE(ue[i])
			w.WriteSE(se[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < count; i++ {
			u, err := r.ReadUE()
			if err != nil || u != ue[i] {
				return false
			}
			s, err := r.ReadSE()
			if err != nil || s != se[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
