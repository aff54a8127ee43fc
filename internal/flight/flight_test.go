package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// share is a counted value: grants and drops move its holder count the
// way the edge's entry references move.
type share struct{ holders atomic.Int64 }

// countingGroup returns a group whose grant/drop pair counts on itself.
func countingGroup() (g *Group[int, *share], grants, drops *atomic.Int64) {
	grants, drops = new(atomic.Int64), new(atomic.Int64)
	g = New[int, *share](
		func(s *share) *share { grants.Add(1); s.holders.Add(1); return s },
		func(s *share) { drops.Add(1); s.holders.Add(-1) },
	)
	return g, grants, drops
}

// TestJoinOneLeader: N concurrent joiners of one key produce exactly one
// leader, and every waiter gets the leader's value with its own grant.
func TestJoinOneLeader(t *testing.T) {
	const n = 64
	g, grants, drops := countingGroup()
	v := &share{}
	var (
		leaders atomic.Int32
		joined  sync.WaitGroup
		done    sync.WaitGroup
		start   = make(chan struct{})
		lead    = make(chan *Call[*share], 1)
		errs    = make(chan error, n)
	)
	for i := 0; i < n; i++ {
		joined.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			<-start
			c, leader := g.Join(1)
			joined.Done()
			if leader {
				leaders.Add(1)
				lead <- c
				return
			}
			got, err := g.Wait(c, time.Now().Add(time.Minute))
			if err == nil && got != v {
				err = errors.New("waiter got a different value")
			}
			errs <- err
		}()
	}
	close(start)
	joined.Wait()
	g.Complete(1, <-lead, v, nil)
	done.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := leaders.Load(); got != 1 {
		t.Fatalf("leaders = %d, want 1", got)
	}
	if grants.Load() != n-1 || drops.Load() != 0 || v.holders.Load() != n-1 {
		t.Fatalf("grants=%d drops=%d holders=%d, want %d/0/%d", grants.Load(), drops.Load(), v.holders.Load(), n-1, n-1)
	}
	if _, leader := g.Join(1); !leader {
		t.Fatal("key not retired after Complete")
	}
}

// TestWaiterLeavesBeforePublish: a waiter whose deadline passes while
// the flight is airborne leaves uncounted, so no grant is minted for it.
func TestWaiterLeavesBeforePublish(t *testing.T) {
	g, grants, drops := countingGroup()
	c, _ := g.Join(1)
	w, leader := g.Join(1)
	if leader {
		t.Fatal("second joiner led")
	}
	if _, err := g.Wait(w, time.Now().Add(-time.Millisecond)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired wait = %v, want ErrDeadline", err)
	}
	v := &share{}
	g.Complete(1, c, v, nil)
	if grants.Load() != 0 || drops.Load() != 0 || v.holders.Load() != 0 {
		t.Fatalf("grants=%d drops=%d holders=%d, want all 0", grants.Load(), drops.Load(), v.holders.Load())
	}
}

// TestWaiterLeavesAfterPublish: a waiter whose deadline fires after the
// publish finds its grant already minted and returns it.
func TestWaiterLeavesAfterPublish(t *testing.T) {
	g, grants, drops := countingGroup()
	c, _ := g.Join(1)
	w, _ := g.Join(1)
	v := &share{}
	g.Complete(1, c, v, nil)
	if grants.Load() != 1 {
		t.Fatalf("grants = %d after publish, want 1", grants.Load())
	}
	g.leave(w) // the waiter's timer won the select against the closed done
	if drops.Load() != 1 || v.holders.Load() != 0 {
		t.Fatalf("drops=%d holders=%d, want 1/0", drops.Load(), v.holders.Load())
	}
}

// TestGrantsBalanceAcrossPublish races waiters whose deadlines straddle
// the publish: however each one resolves, the shares still held are
// exactly the waiters that got the value.
func TestGrantsBalanceAcrossPublish(t *testing.T) {
	const n = 32
	for round := 0; round < 20; round++ {
		g, grants, drops := countingGroup()
		c, _ := g.Join(1)
		calls := make([]*Call[*share], n)
		for i := range calls {
			calls[i], _ = g.Join(1)
		}
		var (
			wg  sync.WaitGroup
			got atomic.Int64
			v   = &share{}
			now = time.Now()
		)
		for i, w := range calls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				deadline := now.Add(time.Duration(i%8) * 100 * time.Microsecond)
				if _, err := g.Wait(w, deadline); err == nil {
					got.Add(1)
				} else if !errors.Is(err, ErrDeadline) {
					t.Error(err)
				}
			}()
		}
		time.Sleep(300 * time.Microsecond)
		g.Complete(1, c, v, nil)
		wg.Wait()
		if held := v.holders.Load(); held != got.Load() || grants.Load()-drops.Load() != held {
			t.Fatalf("round %d: holders=%d waiters served=%d grants=%d drops=%d", round, held, got.Load(), grants.Load(), drops.Load())
		}
	}
}

// TestLeaderErrorReachesWaiters: the leader's error reaches every
// waiter with no grant minted, and the key retires so the next caller
// leads a fresh flight.
func TestLeaderErrorReachesWaiters(t *testing.T) {
	const n = 8
	g, grants, _ := countingGroup()
	c, _ := g.Join(7)
	boom := errors.New("upstream down")
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		w, leader := g.Join(7)
		if leader {
			t.Fatal("joiner led an airborne key")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = g.Wait(w, time.Time{})
		}()
	}
	g.Complete(7, c, nil, boom)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: %v, want the leader's error", i, err)
		}
	}
	if grants.Load() != 0 {
		t.Fatalf("grants = %d on a failed flight", grants.Load())
	}
	if _, leader := g.Join(7); !leader {
		t.Fatal("failed flight's key not retired")
	}
}
