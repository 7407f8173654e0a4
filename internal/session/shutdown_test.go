package session

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestConcurrentShutdownNoLeaksPrefixHolds is the mux teardown contract:
// start 64+ sessions, cancel the context mid-transfer, and require that
// (1) every goroutine the subsystem spawned exits — checked against a
// manual runtime.NumGoroutine budget, since the repo deliberately has no
// external deps — and (2) every session's output tape Y is still a
// prefix of its input X: cancellation may truncate a transfer but must
// never corrupt one.
func TestConcurrentShutdownNoLeaksPrefixHolds(t *testing.T) {
	before := runtime.NumGoroutine()

	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.MaxSessions = 128
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 64
	// Long inputs so every session is still mid-transfer at cancel time.
	const blocks = 40
	ctx, cancel := context.WithCancel(context.Background())
	inputs := make(map[uint32][]wire.Bit)
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		started sync.WaitGroup
	)
	results := make([]TransferResult, 0, sessions)
	started.Add(sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := inputFor(t, sol, blocks, int64(i+1))
			conn, err := pipe.Dialer.Start(ctx, x)
			started.Done()
			if err != nil {
				return
			}
			mu.Lock()
			inputs[conn.ID()] = x
			mu.Unlock()
			rx, _ := pipe.Server.WaitWrites(ctx, conn.ID(), len(x))
			conn.Close()
			res := TransferResult{ID: conn.ID(), X: x, TX: conn.Report(), RX: rx}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(i)
	}

	// Let every session open and make some progress, then pull the plug.
	started.Wait()
	time.Sleep(20 * time.Millisecond)
	if n := pipe.Dialer.InFlight(); n != sessions {
		t.Fatalf("expected %d in-flight sessions before cancel, have %d", sessions, n)
	}
	cancel()
	wg.Wait()

	// Safety survives cancellation: every receiver-side tape a transfer
	// was handed is a prefix of its session's input.
	mu.Lock()
	checked := 0
	sawProgress := false
	for _, res := range results {
		if res.RX.ID != res.ID {
			continue // the server never saw the session
		}
		if v := PrefixCheck(inputs[res.ID], res.RX.Y); v != "" {
			t.Errorf("session %d prefix violation after cancel: %s", res.ID, v)
		}
		checked++
		if res.RX.Writes > 0 {
			sawProgress = true
		}
	}
	mu.Unlock()
	if checked == 0 {
		t.Error("no server-side sessions to check — transfers never reached the server")
	}
	if !sawProgress {
		t.Error("no session made progress before cancel; test did not exercise mid-transfer shutdown")
	}

	if err := pipe.Close(); err != nil {
		t.Fatalf("pipe close: %v", err)
	}

	// Goroutine budget: everything the subsystem spawned must be gone.
	// Allow a small slack for runtime/test goroutines and poll, since
	// exits are asynchronous.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s", before, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipeCloseIsIdempotentAndStopsEverything closes a pipe with live
// sessions (no context cancel at all) and checks teardown alone reclaims
// every goroutine.
func TestPipeCloseIsIdempotentAndStopsEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	sol := mustBeta(t, 4)
	clock := transport.NewClock(50 * time.Microsecond)
	mem := transport.NewMem(clock, transport.MemOptions{D: testParams().D, Buffer: 1 << 14})
	cfg := testConfig(t, sol, mem, clock)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := pipe.Dialer.Start(ctx, inputFor(t, sol, 20, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines not reclaimed: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoroutinesDoNotGrowWithSessions pins the one-loop-per-side layout:
// with 8 and then 64 long sessions live on one Pipe, the goroutine count
// rises by the same small constant — no goroutine per session endpoint.
func TestGoroutinesDoNotGrowWithSessions(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.IdleTicks = -1 // a receiver whose transfer ends early stays live
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	base := runtime.NumGoroutine()
	rise := func(sessions int) int {
		t.Helper()
		for i := pipe.Dialer.InFlight(); i < sessions; i++ {
			if _, err := pipe.Dialer.Start(context.Background(), inputFor(t, sol, 400, int64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for pipe.Server.ActiveCount() < sessions {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d receivers spawned", pipe.Server.ActiveCount(), sessions)
			}
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine() - base
	}
	few, many := rise(8), rise(64)
	if few > 2 || many != few {
		t.Fatalf("goroutines rose by %d with 8 sessions and %d with 64; want the same small constant", few, many)
	}
}
