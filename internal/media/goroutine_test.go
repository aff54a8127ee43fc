package media

import (
	"runtime"
	"testing"
	"time"
)

// waitForGoroutines polls until the live goroutine count settles back to
// the baseline, failing with a full stack dump if it never does.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines alive, want <= %d; stacks:\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoroutineCountStability drives full serving-path lifecycles —
// server + streamer sessions, remote-enhancer sever/reconnect churn,
// and heartbeating pool cycles — and requires the goroutine count to
// return to its baseline after every teardown: the runtime witness for
// the joins goleak demands statically.
func TestGoroutineCountStability(t *testing.T) {
	provider, store := contentOracle(t, testGOP)
	base := runtime.NumGoroutine()

	// Server + streamer lifecycle: the accept loop, per-conn handlers,
	// pipeline stages, and the streamer's ack reader must all be gone
	// after Close.
	for cycle := 0; cycle < 3; cycle++ {
		local, err := NewLocalEnhancer(provider)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer("127.0.0.1:0", local, ServerConfig{AnchorFraction: 0.10, Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		streamer, err := NewStreamer(srv.Addr(), 42, testHello())
		if err != nil {
			t.Fatal(err)
		}
		lr := lrFromHR(t, store.get(42))
		if _, err := streamer.SendChunk(lr[:testGOP]); err != nil {
			t.Fatalf("cycle %d: send chunk: %v", cycle, err)
		}
		if err := streamer.Close(); err != nil {
			t.Fatalf("cycle %d: close streamer: %v", cycle, err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("cycle %d: close server: %v", cycle, err)
		}
		waitForGoroutines(t, base)
	}

	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	enhSrv, err := NewEnhancerServer("127.0.0.1:0", local, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	base = runtime.NumGoroutine()

	// Remote-enhancer reconnect churn: severing the transport under the
	// client makes the next call reconnect, spawning a fresh readLoop
	// generation; Close must join every generation.
	for cycle := 0; cycle < 3; cycle++ {
		remote, err := DialEnhancerTimeout(enhSrv.Addr(), time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := remote.Register(8, testHello()); err != nil {
			t.Fatal(err)
		}
		remote.mu.Lock()
		remote.conn.Close()
		remote.mu.Unlock()
		for i := 0; ; i++ {
			if err := remote.Register(8, testHello()); err == nil {
				break
			} else if i == 50 {
				t.Fatalf("cycle %d: reconnect never succeeded: %v", cycle, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := remote.Close(); err != nil {
			t.Fatalf("cycle %d: close remote: %v", cycle, err)
		}
		waitForGoroutines(t, base)
	}

	// Pool lifecycle with background heartbeats: Close must stop the
	// heartbeat loop and close the dialed replica's reader.
	for cycle := 0; cycle < 3; cycle++ {
		pool, err := NewEnhancerPool([]Replica{{
			ID: "remote",
			Dial: func() (AnchorEnhancer, error) {
				return DialEnhancerTimeout(enhSrv.Addr(), time.Second, time.Second)
			},
		}}, PoolConfig{HeartbeatInterval: 5 * time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Register(8, testHello()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		requireLedgerClosed(t, pool)
		if err := pool.Close(); err != nil {
			t.Fatalf("cycle %d: close pool: %v", cycle, err)
		}
		waitForGoroutines(t, base)
	}

	if err := enhSrv.Close(); err != nil {
		t.Fatal(err)
	}
}
