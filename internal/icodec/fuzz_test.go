package icodec

import (
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
)

// FuzzDecode throws arbitrary bytes at the image decoder: errors are
// fine, panics and crashes are not.
func FuzzDecode(f *testing.F) {
	src := frame.MustNew(24, 16)
	src.Y.Fill(99)
	good, _, err := Encode(src, Options{Quality: 80})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		f.Fatalf("seed stream does not decode: %v", err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		if err == nil && (out.W <= 0 || out.H <= 0) {
			t.Fatal("Decode returned a degenerate frame without error")
		}
	})
}
