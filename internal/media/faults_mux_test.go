package media

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/faults"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// TestRemoteEnhancerMultiplexedGateAndCorrupt drives the two conn-level
// fault modes against the multiplexed RemoteEnhancer with concurrent
// calls in flight: total byte corruption must fail every call (CRC
// framing rejects the traffic) without wedging or crossing replies, a
// killed gate must surface the typed ErrEnhancerUnavailable, and after
// each fault clears the same client must recover transparently with
// correctly routed replies.
func TestRemoteEnhancerMultiplexedGateAndCorrupt(t *testing.T) {
	const streamID = 41
	const frames = 4
	provider, store := contentOracle(t, frames)
	local, err := NewLocalEnhancer(provider)
	if err != nil {
		t.Fatal(err)
	}
	enhSrv, err := NewEnhancerServer("127.0.0.1:0", local, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	defer enhSrv.Close()

	remote, err := DialEnhancerTimeout(enhSrv.Addr(), time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if err := remote.Register(streamID, testHello()); err != nil {
		t.Fatal(err)
	}
	lr := lrFromHR(t, store.get(streamID))
	job := func(i int) wire.AnchorJob {
		return wire.AnchorJob{Packet: i, DisplayIndex: i, QP: 90, Frame: lr[i]}
	}
	burst := func() []error {
		errs := make([]error, frames)
		results := make([]wire.AnchorResult, frames)
		var wg sync.WaitGroup
		for i := 0; i < frames; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = remote.Enhance(streamID, job(i))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err == nil && results[i].Packet != i {
				t.Errorf("call %d got packet %d: multiplexed replies crossed", i, results[i].Packet)
			}
		}
		return errs
	}

	// Reroute every future dial through a gated, corrupting conn and
	// sever the live connection so the next call redials through it.
	gate := &faults.Gate{}
	inj := faults.MustInjector(11, faults.Config{CorruptRate: 1})
	inj.SetEnabled(false)
	remote.mu.Lock()
	inner := remote.dial
	remote.dial = func() (net.Conn, error) {
		c, err := inner()
		if err != nil {
			return nil, err
		}
		return faults.WrapConn(c, inj, gate), nil
	}
	_ = remote.mux.Close()
	remote.mu.Unlock()

	// Healthy baseline through the wrapper: all calls succeed, replies
	// route to their callers.
	for i, err := range burst() {
		if err != nil {
			t.Fatalf("baseline call %d through wrapped conn: %v", i, err)
		}
	}

	// Corrupt mode: every byte stream is damaged, the CRC framing must
	// reject the traffic and every in-flight call must fail — quickly,
	// not by timeout pile-up.
	inj.SetEnabled(true)
	for i, err := range burst() {
		if err == nil {
			t.Errorf("call %d succeeded over a fully corrupting conn", i)
		}
	}
	if inj.Count(faults.Corrupt) == 0 {
		t.Fatal("injector never fired: the corrupting conn was not on the path")
	}
	inj.SetEnabled(false)

	// Recovery from corruption: the next burst redials clean.
	for i, err := range burst() {
		if err != nil {
			t.Fatalf("call %d after corruption cleared: %v", i, err)
		}
	}

	// Gate kill: the transport is dead and every call must fail with the
	// typed unavailability error the failover tier keys on.
	gate.Kill()
	for i, err := range burst() {
		if !errors.Is(err, ErrEnhancerUnavailable) {
			t.Errorf("call %d over killed gate: %v, want ErrEnhancerUnavailable", i, err)
		}
	}

	// Revival: same client, no new wiring, full recovery with routed
	// replies. Only the connection died: the enhancer behind it still
	// knows the stream, so nothing is registered again.
	gate.Revive()
	for i, err := range burst() {
		if err != nil {
			t.Fatalf("call %d after revival: %v", i, err)
		}
	}
}
