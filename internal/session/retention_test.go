package session

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFinishedSessionHoldsNoTrace pins the tombstone: once Transfer has
// handed both final reports to its caller, neither side keeps a trace or
// an output tape for the session, and the server's Snapshot of it is a
// bare Finished tombstone.
func TestFinishedSessionHoldsNoTrace(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 2, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil || !res.Completed {
		t.Fatalf("transfer: err=%v completed=%v", err, res.Completed)
	}
	if len(res.TX.Trace) == 0 || len(res.RX.Trace) == 0 || len(res.RX.Y) != len(x) {
		t.Fatalf("caller was not handed full reports: tx trace %d, rx trace %d, |Y| %d",
			len(res.TX.Trace), len(res.RX.Trace), len(res.RX.Y))
	}
	for _, m := range []*mux{&pipe.Server.mux, &pipe.Dialer.mux} {
		m.mu.Lock()
		_, live := m.active[res.ID]
		parked := m.parkedIndex(res.ID) >= 0
		tomb := m.finished.has(res.ID)
		m.mu.Unlock()
		if live || parked || !tomb {
			t.Fatalf("%s side after Transfer: active=%v parked=%v tombstone=%v, want a tombstone only", m.role, live, parked, tomb)
		}
	}
	rep, ok := pipe.Server.Snapshot(res.ID)
	if want := (Report{ID: res.ID, Role: "receiver", Finished: true}); !ok || !reflect.DeepEqual(rep, want) {
		t.Fatalf("Snapshot after Transfer = %+v (ok=%v), want the tombstone %+v", rep, ok, want)
	}
}

// TestParkedReportClaimedOnce pins the claim-once handover of a receiver
// the server retired on its own: an idle-evicted session's full report,
// tape included, comes back from Evict exactly once, and the server
// never parks more than MaxSessions reports — older ones degrade to
// tombstones.
func TestParkedReportClaimedOnce(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.MaxSessions = 2
	cfg.IdleTicks = 2000 // 100ms at the 50µs test tick: a shorter host stall must not evict a session mid-transfer
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Run three sessions to completion and let the server idle-evict each
	// one; nobody evicts them, so their reports park.
	var ids []uint32
	inputs := map[uint32][]wire.Bit{}
	for i := 0; i < 3; i++ {
		x := inputFor(t, sol, 2, int64(i+1))
		conn, err := pipe.Dialer.Start(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipe.Server.WaitWrites(ctx, conn.ID(), len(x)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		for {
			rep, _ := pipe.Server.Snapshot(conn.ID())
			if rep.Finished {
				break
			}
			if ctx.Err() != nil {
				t.Fatalf("session %d never idle-evicted", conn.ID())
			}
			time.Sleep(time.Millisecond)
		}
		pipe.Server.mu.Lock()
		parked := len(pipe.Server.parked)
		pipe.Server.mu.Unlock()
		if parked > cfg.MaxSessions {
			t.Fatalf("%d reports parked, MaxSessions is %d", parked, cfg.MaxSessions)
		}
		ids = append(ids, conn.ID())
		inputs[conn.ID()] = x
	}

	// The oldest has degraded to its tombstone: nothing to claim.
	if rep, ok := pipe.Server.Evict(ids[0]); ok {
		t.Fatalf("Evict of a degraded report returned %+v", rep)
	}
	if rep, ok := pipe.Server.Snapshot(ids[0]); !ok || !rep.Finished || rep.Y != nil {
		t.Fatalf("degraded session's Snapshot = %+v (ok=%v), want its tombstone", rep, ok)
	}
	for _, id := range ids[1:] {
		rep, ok := pipe.Server.Evict(id)
		if !ok || !rep.Evicted || !rep.Finished || len(rep.Trace) == 0 {
			t.Fatalf("first Evict of parked session %d: ok=%v evicted=%v finished=%v trace=%d",
				id, ok, rep.Evicted, rep.Finished, len(rep.Trace))
		}
		if got, want := wire.BitsToString(rep.Y), wire.BitsToString(inputs[id]); got != want {
			t.Fatalf("parked session %d: Y %s, want %s", id, got, want)
		}
		if again, ok := pipe.Server.Evict(id); ok {
			t.Fatalf("second Evict of session %d returned %+v", id, again)
		}
	}
	if agg := pipe.Server.Aggregate(); agg.Sessions != 3 || agg.Evicted != 3 {
		t.Fatalf("aggregate: sessions=%d evicted=%d, want 3 and 3", agg.Sessions, agg.Evicted)
	}
}

// TestRetainedHeapPerSessionBounded pins bounded memory per served
// session: after 2000 transfers through one Pipe, the heap the pipe
// retains is under 1 KiB per session. Keeping both sides' full final
// reports, traces included, costs about 21 KiB.
func TestRetainedHeapPerSessionBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("2000 transfers; run without -short")
	}
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.IdleTicks = -1 // the rstpserve setting: Transfer evicts each session
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 8, 7) // 48 bits, the size of the benchmark's churn sessions
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	before := liveHeap()
	const sessions, clients = 2000, 64
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail error
	)
	work := make(chan struct{}, sessions)
	for i := 0; i < sessions; i++ {
		work <- struct{}{}
	}
	close(work)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				res, err := pipe.Transfer(ctx, x)
				if err == nil && !res.Completed {
					err = fmt.Errorf("session %d incomplete: %d of %d writes", res.ID, res.RX.Writes, len(x))
				}
				if err != nil {
					mu.Lock()
					fail = err
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail != nil {
		t.Fatalf("transfer: %v", fail)
	}
	after := liveHeap()
	if agg := pipe.Server.Aggregate(); agg.Sessions != sessions {
		t.Fatalf("server saw %d sessions, want %d", agg.Sessions, sessions)
	}
	perSession := (float64(after) - float64(before)) / sessions
	t.Logf("retained %.0f B per session (%d -> %d B live heap)", perSession, before, after)
	if perSession >= 1024 {
		t.Fatalf("pipe retains %.0f B per finished session, want < 1 KiB", perSession)
	}
	runtime.KeepAlive(pipe)
}

// liveHeap returns HeapAlloc after two collections, the second clearing
// what the first left in sync.Pool victim caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
