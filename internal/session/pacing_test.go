package session

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStepGapsNeverBelowC1 holds the paper's step lower bound by
// construction: over 20 concurrent sessions, no transmitter takes a local
// step less than c1 ticks after its previous one, however late a round
// woke. β's d-wait of ⌈d/c1⌉ steps covers d only if that holds. The
// rounds' lag is booked in the step-lag histogram.
func TestStepGapsNeverBelowC1(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.Obs = obs.NewRegistry()
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	const sessions = 20
	results := make([]TransferResult, sessions)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pipe.Transfer(context.Background(), inputFor(t, sol, 12, int64(i+1)))
			if err != nil || !res.Completed {
				t.Errorf("session %d: completed=%v err=%v", i, res.Completed, err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	c1 := cfg.Params.C1
	gaps := 0
	for _, res := range results {
		prev := int64(-1)
		for _, e := range res.TX.Trace {
			if e.Actor == "chan" {
				continue
			}
			if prev >= 0 {
				gaps++
				if gap := e.Time - prev; gap < c1 {
					t.Fatalf("session %d: transmitter stepped %d ticks after its previous step at tick %d, below c1 = %d", res.ID, gap, prev, c1)
				}
			}
			prev = e.Time
		}
	}
	if gaps == 0 {
		t.Fatal("no transmitter step gaps recorded")
	}
	if n := cfg.Obs.Snapshot().Histograms["rstp_session_step_lag_ticks"].Count; n == 0 {
		t.Fatal("no step round booked in rstp_session_step_lag_ticks")
	}
}

// TestIdlePipeDoesNotWake checks that a Pipe with no live session leaves
// its clock's pacer alone: once a transfer has finished and both sides
// have stepped their last round, the pacer fires 0 times over 100 ms.
// When a side resumes, its idle time is not booked as a loop stall.
func TestIdlePipeDoesNotWake(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	transfer := func() {
		t.Helper()
		res, err := pipe.Transfer(context.Background(), inputFor(t, sol, 2, 1))
		if err != nil || !res.Completed {
			t.Fatalf("transfer: completed=%v err=%v", res.Completed, err)
		}
	}
	transfer()
	pacing := func(m *mux) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.pacing
	}
	deadline := time.Now().Add(10 * time.Second)
	for pacing(&pipe.Server.mux) || pacing(&pipe.Dialer.mux) {
		if time.Now().After(deadline) {
			t.Fatal("a side with no live session still steps")
		}
		time.Sleep(time.Millisecond)
	}
	// The delay line may still hold frames of the last rounds: wait for
	// the pacer to go quiet, then watch it for 100 ms.
	clock := cfg.Clock
	for prev := clock.PacerFires(); ; {
		time.Sleep(20 * time.Millisecond)
		n := clock.PacerFires()
		if n == prev {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pacer of a Pipe with no live session never went quiet")
		}
		prev = n
	}
	before := clock.PacerFires()
	time.Sleep(100 * time.Millisecond)
	if n := clock.PacerFires() - before; n != 0 {
		t.Fatalf("idle Pipe's pacer fired %d times in 100 ms, want 0", n)
	}
	pipe.Server.mu.Lock()
	stalled := pipe.Server.stalled
	pipe.Server.mu.Unlock()
	transfer()
	pipe.Server.mu.Lock()
	stalled = pipe.Server.stalled - stalled
	pipe.Server.mu.Unlock()
	// 100 ms is 2000 ticks; a host hiccup during the transfer books far
	// less.
	if idle := int64(100*time.Millisecond/clock.Tick()) / 2; stalled > idle {
		t.Fatalf("resuming booked %d ticks of stall, the side's idle time", stalled)
	}
}
