package icodec

import (
	"runtime/debug"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
)

// TestAnchorCodecAllocs guards the image codec on the anchor path: with
// two workers a warm Append into a buffer of Reserve bytes allocates
// nothing, and a warm Decode of one 288×192 anchor allocates only the
// frame it returns.
func TestAnchorCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	const w, h, quality = 288, 192, 90
	f := testFrame(t, w, h)
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(2)
	// The collector stays off so the pools keep what is put back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	buf := make([]byte, 0, Reserve(w, h, quality))
	var code []byte
	if n := testing.AllocsPerRun(20, func() {
		var err error
		if code, _, err = Append(buf[:0], f, Options{Quality: quality}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm Append allocates %.0f times, want 0", n)
	}
	want := testing.AllocsPerRun(20, func() { frame.MustNew(w, h) })
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Decode(code); err != nil {
			t.Fatal(err)
		}
	}); n > want {
		t.Errorf("a warm Decode allocates %.0f times, want at most %.0f (the frame it returns)", n, want)
	}
}
