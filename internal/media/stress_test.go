package media

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/neuroscaler/neuroscaler/internal/metrics"
)

// TestConcurrentStreams drives several broadcasters and viewers through
// one media server at once; run with -race in CI to catch data races in
// the server's shared state.
func TestConcurrentStreams(t *testing.T) {
	const (
		nStreams = 4
		frames   = 24 // two GOPs of 12
	)
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: 0.10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	httpSrv := httptest.NewServer(srv.DistributionHandler())
	defer httpSrv.Close()

	contentByStream := []string{"lol", "chat", "gta", "minecraft"}
	var wg sync.WaitGroup
	errCh := make(chan error, nStreams)
	for id := 1; id <= nStreams; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			hello := testHello()
			hello.Content = contentByStream[id-1]
			streamer, err := NewStreamer(srv.Addr(), uint32(id), hello)
			if err != nil {
				errCh <- fmt.Errorf("stream %d: %w", id, err)
				return
			}
			defer streamer.Close()
			hr := store.get(uint32(id))
			lr := lrFromHR(t, hr)
			for c := 0; c < frames; c += testGOP {
				if _, err := streamer.SendChunk(lr[c : c+testGOP]); err != nil {
					errCh <- fmt.Errorf("stream %d chunk: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Concurrent viewers.
	viewer := NewViewer(httpSrv.URL)
	infos, err := viewer.Streams()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != nStreams {
		t.Fatalf("%d streams listed, want %d", len(infos), nStreams)
	}
	var vg sync.WaitGroup
	verr := make(chan error, nStreams)
	for _, info := range infos {
		vg.Add(1)
		go func(info StreamInfo) {
			defer vg.Done()
			total := 0
			for seq := 0; seq < info.Chunks; seq++ {
				out, err := NewViewer(httpSrv.URL).WatchChunk(info.StreamID, seq)
				if err != nil {
					verr <- fmt.Errorf("stream %d chunk %d: %w", info.StreamID, seq, err)
					return
				}
				hr := store.get(info.StreamID)
				psnr, err := metrics.MeanPSNR(hr[total:total+len(out)], out)
				if err != nil {
					verr <- err
					return
				}
				if psnr < 24 {
					verr <- fmt.Errorf("stream %d chunk %d: %.2f dB", info.StreamID, seq, psnr)
					return
				}
				total += len(out)
			}
			if total != frames {
				verr <- fmt.Errorf("stream %d: watched %d frames, want %d", info.StreamID, total, frames)
			}
		}(info)
	}
	vg.Wait()
	close(verr)
	for err := range verr {
		t.Fatal(err)
	}
}
