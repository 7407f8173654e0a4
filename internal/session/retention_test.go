package session

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/timed"
	"repro/internal/transport"
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
// the server retired on its own: the full report of a session the
// watchdog retired after its last write, tape included, comes back from
// Evict exactly once, and the server never parks more than MaxSessions
// reports — older ones degrade to tombstones.
func TestParkedReportClaimedOnce(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.MaxSessions = 2
	cfg.IdleTicks = 2000 // 100ms at the 50µs test tick: a shorter host stall must not retire a session mid-transfer
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Run three sessions to completion and let the server's watchdog
	// retire each one; nobody evicts them, so their reports park.
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
				t.Fatalf("session %d never retired by the watchdog", conn.ID())
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
		if !ok || !rep.Wedged || !rep.Finished || len(rep.Trace) == 0 {
			t.Fatalf("first Evict of parked session %d: ok=%v wedged=%v finished=%v trace=%d",
				id, ok, rep.Wedged, rep.Finished, len(rep.Trace))
		}
		if got, want := wire.BitsToString(rep.Y), wire.BitsToString(inputs[id]); got != want {
			t.Fatalf("parked session %d: Y %s, want %s", id, got, want)
		}
		if again, ok := pipe.Server.Evict(id); ok {
			t.Fatalf("second Evict of session %d returned %+v", id, again)
		}
	}
	if agg := pipe.Server.Aggregate(); agg.Sessions != 3 || agg.Wedged != 3 {
		t.Fatalf("aggregate: sessions=%d wedged=%d, want 3 and 3", agg.Sessions, agg.Wedged)
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

// heldEndpoints counts the endpoints m's order still references, in its
// whole backing array, retired ones included.
func heldEndpoints(m *mux) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ep := range m.order[:cap(m.order)] {
		if ep != nil {
			n++
		}
	}
	return n
}

// TestIdleSideHoldsNoEndpoint: a side that a Transfer leaves with no
// live session drops its retired endpoints, traces and tapes at once,
// not at its next step round, so a collection right after the transfer
// finds none of them live.
func TestIdleSideHoldsNoEndpoint(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		x := inputFor(t, sol, 2, int64(i+1))
		if res, err := pipe.Transfer(ctx, x); err != nil || !res.Completed {
			t.Fatalf("transfer %d: err=%v completed=%v", i, err, res.Completed)
		}
		for _, m := range []*mux{&pipe.Server.mux, &pipe.Dialer.mux} {
			if n := heldEndpoints(m); n != 0 {
				t.Fatalf("transfer %d: the idle %s side still holds %d endpoints", i, m.role, n)
			}
		}
	}
}

// TestWatchdogEmptiesSideMidRound: the watchdog retires a side's last
// live endpoint inside a step round, while the round ranges over the
// side's order, and an endpoint its caller retired since the last round
// still sits behind it there. The round parks the wedged one's full
// report and leaves the side holding no endpoint.
func TestWatchdogEmptiesSideMidRound(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = watchdogWindow(1)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	// One lock hold, so the side's own loop runs no round in between.
	func() {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, id := range []uint32{7, 8} {
			srv.deliverLocked(wire.Frame{Session: id, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)})
		}
		wedged, evicted := srv.active[7], srv.active[8]
		srv.releaseLocked(evicted)
		now := cfg.Clock.Now()
		wedged.lastProgress = now - 2*cfg.IdleTicks
		srv.tickLocked(now)
	}()

	if n := heldEndpoints(&srv.mux); n != 0 {
		t.Fatalf("the wedged-out side still holds %d endpoints", n)
	}
	rep, ok := srv.Evict(7)
	if !ok || !rep.Wedged || len(rep.Trace) == 0 {
		t.Fatalf("wedged session's parked report %+v (ok=%v), want it wedged with its trace", rep, ok)
	}
}

// copiedReport is a report with its own copy of ep's tape and trace, as
// every final report was before retired endpoints handed theirs over.
// Callers hold the side's mutex.
func copiedReport(ep *endpoint) Report {
	r := ep.counters()
	r.Y = append([]wire.Bit(nil), ep.y...)
	r.Trace = append([]timed.Event(nil), ep.trace...)
	return r
}

// TestFinalReportsShareRetiredState: the final reports of a retired
// endpoint (Evict's, and Conn.Report after Close, however often) hold
// what a copy would, share the endpoint's tape and trace, and are
// clipped, so appending to one leaves the others and the endpoint as
// they were. A live endpoint's snapshot is still a copy.
func TestFinalReportsShareRetiredState(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 2, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, err := pipe.Dialer.Start(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Server.WaitWrites(ctx, conn.ID(), len(x)); err != nil {
		t.Fatal(err)
	}
	srv := pipe.Server
	srv.mu.Lock()
	rxEp := srv.active[conn.ID()]
	srv.mu.Unlock()
	live, _ := srv.Snapshot(conn.ID())
	srv.mu.Lock()
	if &live.Trace[0] == &rxEp.trace[0] || &live.Y[0] == &rxEp.y[0] {
		t.Error("a live endpoint's snapshot shares its trace or tape")
	}
	srv.mu.Unlock()

	rx, ok := srv.Evict(conn.ID())
	if !ok {
		t.Fatal("Evict handed no report over")
	}
	conn.Close()
	tx1, tx2 := conn.Report(), conn.Report()

	check := func(name string, m *mux, ep *endpoint, got ...Report) {
		t.Helper()
		m.mu.Lock()
		want := copiedReport(ep)
		m.mu.Unlock()
		for i, r := range got {
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("%s report %d = %+v, want the copy %+v", name, i, r, want)
			}
			if len(r.Trace) == 0 || cap(r.Trace) != len(r.Trace) || cap(r.Y) != len(r.Y) {
				t.Fatalf("%s report %d: trace %d/%d, tape %d/%d, want non-empty and clipped", name, i, len(r.Trace), cap(r.Trace), len(r.Y), cap(r.Y))
			}
			if &r.Trace[0] != &ep.trace[0] {
				t.Fatalf("%s report %d copied the retired endpoint's trace", name, i)
			}
		}
	}
	check("receiver", &srv.mux, rxEp, rx)
	check("transmitter", &pipe.Dialer.mux, conn.ep, tx1, tx2)
	if len(rx.Y) == 0 || &rx.Y[0] != &rxEp.y[0] {
		t.Fatal("Evict's report copied the retired receiver's tape")
	}

	// Appends by one holder go to a copy of their own.
	grown := tx1
	grown.Trace = append(grown.Trace, timed.Event{Time: -1})
	rxGrown := rx
	rxGrown.Y = append(rxGrown.Y, 1-rxGrown.Y[len(rxGrown.Y)-1])
	rxGrown.Trace = append(rxGrown.Trace, timed.Event{Time: -1})
	check("receiver after an append", &srv.mux, rxEp, rx)
	check("transmitter after an append", &pipe.Dialer.mux, conn.ep, tx1, tx2, conn.Report())
}

// TestTraceHintStopsAtLimit: a trace sized from a side's last session
// never gets more room than TraceLimit, still stops recording there and
// counts the rest in TraceDropped; with tracing off a hint allocates
// nothing.
func TestTraceHintStopsAtLimit(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	const limit = 16
	cfg.TraceLimit = limit
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	sides := []*mux{&pipe.Server.mux, &pipe.Dialer.mux}
	for _, m := range sides {
		m.mu.Lock()
		m.traceHint = 10 * limit
		if c := cap(newEndpoint(m, 1000, nil).trace); c != limit {
			t.Errorf("%s side: a trace sized from a hint of %d has room for %d, want %d", m.role, m.traceHint, c, limit)
		}
		m.mu.Unlock()
	}
	x := inputFor(t, sol, 2, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil || !res.Completed {
		t.Fatalf("transfer: err=%v completed=%v", err, res.Completed)
	}
	for _, r := range []Report{res.TX, res.RX} {
		if len(r.Trace) != limit || r.TraceDropped == 0 {
			t.Errorf("%s: %d events recorded, %d dropped, want %d and the rest dropped", r.Role, len(r.Trace), r.TraceDropped, limit)
		}
	}

	off := &mux{}
	off.init(Config{Params: applyParams, Clock: transport.NewClock(0), TraceLimit: -1}, "receiver")
	off.traceHint = limit
	if ep := newEndpoint(off, 1, nil); ep.trace != nil {
		t.Errorf("tracing off: a hinted endpoint has a trace of room %d", cap(ep.trace))
	}
}
