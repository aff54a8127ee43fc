package frame

import (
	"runtime/debug"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/par"
)

// TestScaleBicubicBlendAllocs guards the hybrid codec's blend: with two
// workers a warm ScaleBicubicBlendInto into a caller's frame allocates
// nothing (the taps are cached, the rows pooled, the loops closure-free).
func TestScaleBicubicBlendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	src, target := benchSrc(96, 64), benchSrc(288, 192)
	dst := Borrow(288, 192)
	defer Release(dst)
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(2)
	// The collector stays off so the pools keep what is put back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(20, func() {
		if err := ScaleBicubicBlendInto(dst, src, target, 0.25); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm ScaleBicubicBlendInto allocates %.0f times, want 0", n)
	}
}
