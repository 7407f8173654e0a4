package session

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestPipeNeverRefusesAdmittedSession pins the teardown order of
// Transfer: the receiver is evicted before the transmitter releases its
// dialer slot, so the server never holds more sessions than the dialer
// has open. Releasing the slot first let a queued session start while
// the server still counted the old receiver; its first frames met a full
// server, were refused, and a bare protocol stalled until the deadline.
// Thousands of clients queued on a few slots keep the old window open
// often enough to fail most runs.
func TestPipeNeverRefusesAdmittedSession(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.MaxSessions = 8
	cfg.IdleTicks = -1
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 1, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < 2048; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2 && ctx.Err() == nil; i++ {
				_, _ = pipe.Transfer(ctx, x) // a stall shows as a refusal below
			}
		}()
	}
	wg.Wait()
	if r := pipe.Server.Refused(); r != 0 {
		t.Fatalf("server refused %d frames of sessions the dialer admitted", r)
	}
}

// TestTransferWaitSizesTape: waiting for a whole transfer allocates the
// receiver's output tape for all of X in one go, whether the receiver
// spawns after the wait parks or had spawned before it.
func TestTransferWaitSizesTape(t *testing.T) {
	cfg, mem := memConfig(t, mustBeta(t, 4), nil)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	const n = 96
	tapeCap := func(id uint32) int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return cap(srv.active[id].y)
	}

	// Spawned after the wait parks: the spawn wait carries the size.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.WaitWrites(ctx, 7, n)
	}()
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		parked = srv.spawnWaits[7] != nil
		if parked {
			srv.spawnLocked(7)
		}
		srv.mu.Unlock()
	}
	if got := tapeCap(7); got != n {
		t.Errorf("receiver spawned under a parked wait: tape capacity %d, want %d", got, n)
	}
	srv.Evict(7)
	<-done

	// Spawned before the wait.
	srv.mu.Lock()
	srv.spawnLocked(8)
	srv.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	srv.WaitWrites(ctx, 8, n)
	if got := tapeCap(8); got != n {
		t.Errorf("receiver spawned before the wait: tape capacity %d, want %d", got, n)
	}
}
