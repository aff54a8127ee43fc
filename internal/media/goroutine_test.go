package media

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
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
	// client makes the next call reconnect on a fresh Mux (and reader)
	// generation; every generation must be joined by the time Close
	// returns.
	for cycle := 0; cycle < 3; cycle++ {
		remote, err := DialEnhancerTimeout(enhSrv.Addr(), time.Second, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Route dials through a hook that keeps the raw conn, and drop the
		// first connection so the next call dials through it.
		var raw net.Conn
		remote.mu.Lock()
		inner := remote.dial
		remote.dial = func() (net.Conn, error) {
			c, err := inner()
			raw = c
			return c, err
		}
		_ = remote.mux.Close()
		remote.mu.Unlock()
		if err := remote.Register(8, testHello()); err != nil {
			t.Fatal(err)
		}
		remote.mu.Lock()
		raw.Close()
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

// TestCloseWithIdlePeer: a server's Close must not wait out the idle
// timeout of a peer that is connected and silent. It closes the live
// connections as well as the listener, returns promptly, is a no-op the
// second time, and leaves no goroutine behind.
func TestCloseWithIdlePeer(t *testing.T) {
	provider, _ := contentOracle(t, testGOP)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	type server interface {
		Addr() string
		Close() error
	}
	for _, tc := range []struct {
		name  string
		start func() (server, error)
	}{
		{"origin", func() (server, error) {
			return NewServer("127.0.0.1:0", local, ServerConfig{Logf: silentLogf})
		}},
		{"enhancer", func() (server, error) {
			return NewEnhancerServer("127.0.0.1:0", local, silentLogf)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			srv, err := tc.start()
			if err != nil {
				t.Fatal(err)
			}
			peer, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			// One ping round trip proves the handler is up and parked in its
			// next read; then the peer says nothing more.
			_ = peer.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.Write(peer, wire.Message{Type: wire.TypePing, Seq: 1}); err != nil {
				t.Fatal(err)
			}
			if reply, err := wire.Read(peer, wire.DefaultMaxPayload); err != nil || reply.Type != wire.TypePong {
				t.Fatalf("ping: %v, %v", reply.Type, err)
			}

			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Errorf("close: %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Close still blocked after 1s with one idle peer connected: it is waiting on a handler parked in a read")
			}
			if err := srv.Close(); err != nil {
				t.Errorf("second close: %v", err)
			}
			peer.Close()
			waitForGoroutines(t, base)
		})
	}
}
