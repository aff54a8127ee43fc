package media

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/hybrid"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// TestLocalEnhanceAllocs guards the live anchor path's memory: once warm,
// LocalEnhancer.Enhance allocates at most the coded anchor it returns
// (the capacity of its buffer) plus 2 KB, at the anchor quality the
// origin picks for anchor fraction 0.15. The super-resolved frame comes
// from the arena and goes back after the image encode, so no per-anchor
// HR frame, filter taps, quantizer or noise generator reach the heap.
// Higher qualities outgrow the image encoder's up-front reservation and
// pay its regrowth on top.
func TestLocalEnhanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	const streamID, runs = 7, 50
	provider, store := contentOracle(t, 2)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Register(streamID, testHello()); err != nil {
		t.Fatal(err)
	}
	lr := lrFromHR(t, store.get(streamID))
	qp, err := hybrid.QPForFraction(0.15)
	if err != nil {
		t.Fatal(err)
	}
	job := wire.AnchorJob{Packet: 1, DisplayIndex: 1, QP: qp, Frame: lr[1]}
	coded := 0
	enhance := func() {
		res, err := local.Enhance(streamID, job)
		if err != nil {
			t.Fatal(err)
		}
		coded = cap(res.Encoded)
	}
	old := par.Workers()
	defer par.SetWorkers(old)
	for _, workers := range []int{1, 2} {
		par.SetWorkers(workers)
		perAnchor := allocBytesPerRun(runs, enhance)
		t.Logf("workers %d QP %d: %.0f B per anchor, %d B coded", workers, qp, perAnchor, coded)
		if perAnchor > float64(coded+2048) {
			t.Errorf("workers %d QP %d: warm Enhance allocates %.0f B per anchor, want at most the %d B coded + 2048",
				workers, qp, perAnchor, coded)
		}
	}
}

// allocBytesPerRun is the mean heap bytes one call of f allocates, after
// one warm-up call. Like testing.AllocsPerRun it measures on one P, so a
// frame put back to the arena is the one the next Borrow finds, and the
// collector is off, so pooled buffers are not dropped mid-measurement.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
