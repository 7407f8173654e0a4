package control

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReleasedWaitersNeverOvershoot: admissions that pass the occupancy
// check at the same moment must not all be recorded. Active holds every
// caller until all of them have read it, so each sees the same free
// gate; the in-flight count decides, and it is checked and bumped under
// one lock hold, so exactly TargetSessions are admitted and the rest
// park until Stop.
func TestReleasedWaitersNeverOvershoot(t *testing.T) {
	const n, target = 32, 8
	c := newCtl(t, func(cfg *Config) { cfg.TargetSessions = target })
	var arrived atomic.Int64
	barrier := make(chan struct{})
	c.Bind(Actuators{Active: func() int64 {
		if arrived.Add(1) == n {
			close(barrier)
		}
		<-barrier
		return 0
	}})
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for id := uint32(1); id <= n; id++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			if err := c.Admit(context.Background(), id); err != nil {
				t.Errorf("Admit(%d): %v", id, err)
				return
			}
			admitted.Add(1)
		}(id)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.State().Gated < n-target && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the parked ones poll again
	c.mu.Lock()
	inFlight := len(c.admitted)
	c.mu.Unlock()
	if inFlight != target || admitted.Load() != target {
		t.Errorf("%d recorded, %d returned from Admit; want exactly the target %d", inFlight, admitted.Load(), target)
	}
	if st := c.State(); st.Gated != n-target {
		t.Errorf("gated = %d, want %d", st.Gated, n-target)
	}
	c.Stop()
	wg.Wait()
}

// TestAdmitAfterCancelRecordsNothing: an Admit whose context has
// already ended returns its error even through an open gate, and
// records nothing that a Forget would have to undo.
func TestAdmitAfterCancelRecordsNothing(t *testing.T) {
	c := newCtl(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for id := uint32(1); id <= 1000; id++ {
		if err := c.Admit(ctx, id); !errors.Is(err, context.Canceled) {
			t.Fatalf("Admit(%d) with an ended context: %v, want context.Canceled", id, err)
		}
	}
	c.mu.Lock()
	n := len(c.admitted)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d IDs admitted by cancelled Admits, want 0", n)
	}
}
