package sr

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/par"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// anchorContent renders n HR frames of the benchmark's content (synth
// "lol", 96×64 ingest, ×3) and their ingest-resolution downscales.
func anchorContent(tb testing.TB, n int) (hr, lr []*frame.Frame) {
	tb.Helper()
	p, err := synth.ProfileByName("lol")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 96*3, 64*3, 20220822)
	if err != nil {
		tb.Fatal(err)
	}
	hr = g.GenerateChunk(n)
	lr = make([]*frame.Frame, n)
	for i, f := range hr {
		if lr[i], err = frame.Downscale(f, 3); err != nil {
			tb.Fatal(err)
		}
	}
	return hr, lr
}

func framePixels(f *frame.Frame) []byte {
	var pix []byte
	for _, p := range f.Planes() {
		for y := 0; y < p.H; y++ {
			pix = append(pix, p.Row(y)...)
		}
	}
	return pix
}

// TestOracleApplyConcurrent pins Model's concurrency contract on the
// oracle: four goroutines apply one model at once, two of them to the
// same display indices and two to their own, and releasing outputs into
// the arena between calls; every output equals its serial counterpart.
// Run under -race, it also checks the pooled floor generators and the
// shared tap cache for data races.
func TestOracleApplyConcurrent(t *testing.T) {
	hr, lr := anchorContent(t, 8)
	m, err := NewOracleModel(HighQuality(), hr)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(lr))
	for i := range lr {
		out, err := m.Apply(lr[i], i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = framePixels(out)
		frame.Release(out)
	}
	indices := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7}, // shared by the first two goroutines
		{0, 1, 2, 3, 4, 5, 6, 7},
		{0, 2, 4, 6},
		{1, 3, 5, 7},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(indices))
	for g, idx := range indices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, i := range idx {
					out, err := m.Apply(lr[i], i)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(framePixels(out), want[i]) {
						errs <- fmt.Errorf("goroutine %d round %d: display index %d differs from the serial output", g, round, i)
						return
					}
					frame.Release(out)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// allocBytesPerRun is the mean heap bytes one call of f allocates, after
// one warm-up call. Like testing.AllocsPerRun it measures on one P, so a
// buffer put back to a sync.Pool is the one the next Get finds, and the
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

// TestOracleApplyAllocs guards the anchor path's memory: once warm, an
// Apply whose output goes back to the arena allocates under 1 KB — the
// HR frame, the filter taps, the intermediate rows and the floor's
// generator are all recycled.
func TestOracleApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	hr, lr := anchorContent(t, 2)
	m, err := NewOracleModel(HighQuality(), hr)
	if err != nil {
		t.Fatal(err)
	}
	old := par.Workers()
	defer par.SetWorkers(old)
	for _, workers := range []int{1, 2} {
		par.SetWorkers(workers)
		got := allocBytesPerRun(50, func() {
			out, err := m.Apply(lr[1], 1)
			if err != nil {
				t.Fatal(err)
			}
			frame.Release(out)
		})
		t.Logf("workers %d: %.0f B per Apply+Release", workers, got)
		if got >= 1024 {
			t.Errorf("workers %d: warm Apply+Release allocates %.0f B per call, want < 1024", workers, got)
		}
	}
}

// BenchmarkOracleApply is one anchor's super-resolution at the
// benchmark's geometry (96×64 → 288×192), output released to the arena
// as the enhancer does.
func BenchmarkOracleApply(b *testing.B) {
	hr, lr := anchorContent(b, 2)
	m, err := NewOracleModel(HighQuality(), hr)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := m.Apply(lr[1], 1)
		if err != nil {
			b.Fatal(err)
		}
		frame.Release(out)
	}
}
