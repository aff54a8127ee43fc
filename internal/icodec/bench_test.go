package icodec

import (
	"fmt"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/synth"
)

// benchAnchor is a super-resolved anchor at the benchmark's geometry:
// the oracle model's output for synth "lol" at 96×64, ×3.
func benchAnchor(b *testing.B) *frame.Frame {
	b.Helper()
	p, err := synth.ProfileByName("lol")
	if err != nil {
		b.Fatal(err)
	}
	g, err := synth.NewGenerator(p, 96*3, 64*3, 20220822)
	if err != nil {
		b.Fatal(err)
	}
	hr := g.GenerateChunk(2)
	lr, err := frame.Downscale(hr[1], 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sr.NewOracleModel(sr.HighQuality(), hr)
	if err != nil {
		b.Fatal(err)
	}
	anchor, err := m.Apply(lr, 1)
	if err != nil {
		b.Fatal(err)
	}
	return anchor
}

// BenchmarkEncodeAnchor is the image encode of one anchor at the anchor
// qualities the origin uses (85 at the benchmark's anchor fraction),
// reporting the coded non-zero coefficients per 8×8 block.
func BenchmarkEncodeAnchor(b *testing.B) {
	anchor := benchAnchor(b)
	for _, q := range []int{85, 95, 100} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				var err error
				if _, st, err = Encode(anchor, Options{Quality: q}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.NonZeroCoefs)/float64(st.BlocksCoded), "nz/block")
			b.ReportMetric(float64(st.Bytes), "B/anchor")
		})
	}
}
