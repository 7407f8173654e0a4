package session

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rstp"
	"repro/internal/wire"
)

// watchdogWindow is the IdleTicks window of k worst-case message times
// under testConfig's parameters: k·δ1·c2 ticks (δ1 = ⌊12/2⌋ = 6, c2 = 3).
func watchdogWindow(k int) int64 {
	p := testParams()
	return int64(k) * int64(p.Delta1()) * p.C2
}

// lookup returns the active endpoint for a session, if any.
func (m *mux) lookup(id uint32) *endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[id]
}

// TestWatchdogRetiresWedgedSession pins the watchdog's guarantee: a
// session with no output growth for k·δ1·c2 ticks is force-retired
// through the tombstone path, reported Wedged, and its MaxSessions slot
// freed (rstpserve -watchdog k sets this window).
func TestWatchdogRetiresWedgedSession(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = watchdogWindow(4)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	t0 := cfg.Clock.Now()
	// One stray frame spawns a receiver that will never see a full block:
	// a permanently wedged session.
	if err := mem.Send(wire.Frame{Session: 7, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var rep Report
	for {
		var ok bool
		rep, ok = srv.Snapshot(7)
		if ok && rep.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged session never retired; snapshot ok=%v rep=%+v", ok, rep)
		}
		time.Sleep(time.Millisecond)
	}
	wedgeTick := cfg.Clock.Now()
	if !rep.Wedged {
		t.Fatalf("retired session not marked wedged: %+v", rep)
	}
	// The force-retire must land within the derived window plus generous
	// slack for spawn latency and polling (the window itself is 72 ticks).
	if window := watchdogWindow(4); wedgeTick-t0 > 10*window {
		t.Fatalf("wedge took %d ticks, window is %d", wedgeTick-t0, window)
	}
	if ep := srv.lookup(7); ep != nil {
		t.Fatal("wedged session still pinning its slot")
	}
	if agg := srv.Aggregate(); agg.Wedged != 1 {
		t.Fatalf("aggregate wedged %d, want 1", agg.Wedged)
	}
	// A straggler of the force-retired session drops at its tombstone
	// instead of respawning a ghost receiver.
	srv.route(wire.Frame{Session: 7, Dir: wire.TtoR, Seq: 99, P: wire.DataPacket(1)})
	if ep := srv.lookup(7); ep != nil {
		t.Fatal("wedged session respawned by a late frame")
	}
	if srv.Late() != 1 {
		t.Fatalf("late = %d, want 1 (the straggler)", srv.Late())
	}
}

// TestWatchdogResyncBeforeRetire pins the stabilized-stack integration:
// with a session built by the stabilizing layer, the first wedge window
// triggers one ForceResync (the protocol's own recovery handshake) and
// re-arms; only the second window force-retires.
func TestWatchdogResyncBeforeRetire(t *testing.T) {
	sol := rstp.Stabilize(mustBeta(t, 4), rstp.StabilizeOptions{})
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = watchdogWindow(4)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	if err := mem.Send(wire.Frame{Session: 9, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var rep Report
	for {
		var ok bool
		rep, ok = srv.Snapshot(9)
		if ok && rep.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged stabilized session never retired; rep=%+v", rep)
		}
		time.Sleep(time.Millisecond)
	}
	if rep.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want exactly 1 before the force-retire", rep.Resyncs)
	}
	if !rep.Wedged {
		t.Fatalf("session not marked wedged after the resync chance: %+v", rep)
	}
	if agg := srv.Aggregate(); agg.Resyncs != 1 || agg.Wedged != 1 {
		t.Fatalf("aggregate resyncs=%d wedged=%d, want 1/1", agg.Resyncs, agg.Wedged)
	}
}

// TestCloseDuringWatchdogRetire is the race-targeted satellite: closing
// the server while watchdogs are force-retiring many sessions must not
// double-retire, deadlock, or corrupt the report set. Run under -race.
func TestCloseDuringWatchdogRetire(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = watchdogWindow(1) // every stray session wedges within δ1·c2 = 18 ticks
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	const sessions = 32
	for i := 0; i < sessions; i++ {
		if err := mem.Send(wire.Frame{Session: uint32(i + 1), Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Let some sessions spawn and some watchdogs fire, then slam the door
	// while retirements are mid-flight.
	time.Sleep(2 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		srv.Close()
	}()
	go func() {
		defer wg.Done()
		// Concurrent readers must stay safe during the shutdown.
		_ = srv.Aggregate()
		_, _ = srv.Snapshot(1)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked against watchdog retirement")
	}
	// Every spawned session retired exactly once: each left one tombstone
	// and was folded into the running counters once, and none is still
	// active. A second Close must be a cheap no-op.
	agg := srv.Aggregate()
	srv.mu.Lock()
	spawned := srv.finished.len()
	srv.mu.Unlock()
	if agg.Sessions != spawned {
		t.Fatalf("aggregate counts %d sessions, %d were spawned", agg.Sessions, spawned)
	}
	if agg.Active != 0 {
		t.Fatalf("%d sessions still active after Close", agg.Active)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogDiscountsLoopStalls: a stall of the side's own loop longer
// than the window is not charged to a receiver. The last write is
// backdated by twice the window and the same gap is booked as a loop
// stall: the receiver stays live. The same silence with no stall
// retires it.
func TestWatchdogDiscountsLoopStalls(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = watchdogWindow(4)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	gap := 2 * cfg.IdleTicks
	for cfg.Clock.Now() <= gap { // book ignores a reading at tick 0
		time.Sleep(time.Millisecond)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.deliverLocked(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)})
	ep := srv.active[1]
	now := cfg.Clock.Now()
	ep.lastProgress = now - gap
	srv.lastNow = now - gap // the loop's previous reading: it has not run since
	srv.book(now)
	if !srv.advance(ep) || ep.wedged {
		t.Fatalf("a %d-tick loop stall retired the receiver (window %d, stall booked %d)", gap, cfg.IdleTicks, srv.stalled)
	}
	// The control: the same silence, with the loop running on time.
	ep.lastProgress, ep.stallMark = now-gap, srv.stalled
	srv.tickLocked(now + 1)
	if !ep.retired || !ep.wedged {
		t.Fatalf("%d ticks of silence without a stall left the receiver retired=%v wedged=%v", gap, ep.retired, ep.wedged)
	}
}

// TestWatchdogRetiresChattyStuckReceiver: under the default window
// (64·D), a receiver that keeps getting frames but never writes is
// retired as wedged. Traffic alone does not keep a session alive.
func TestWatchdogRetiresChattyStuckReceiver(t *testing.T) {
	cfg, mem := memConfig(t, writeOnceBuilder{}, nil)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	window := 64 * cfg.Params.D
	t0 := cfg.Clock.Now()
	deadline := time.Now().Add(10 * time.Second)
	for seq := int64(1); ; seq++ {
		// One frame every ~20 ticks: the receiver is never without
		// traffic for long, and its writeOnce automaton is never armed.
		if err := mem.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: seq, P: wire.DataPacket(1)}); err != nil {
			t.Fatal(err)
		}
		rep, ok := srv.Snapshot(1)
		if ok && rep.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a receiver with %d deliveries and %d writes was never retired", rep.Deliveries, rep.Writes)
		}
		time.Sleep(time.Millisecond)
	}
	rep, ok := srv.Evict(1)
	if !ok || !rep.Wedged || rep.Writes != 0 {
		t.Fatalf("final report %+v (ok=%v), want a wedged receiver with no writes", rep, ok)
	}
	if elapsed := cfg.Clock.Now() - t0; elapsed < window {
		t.Fatalf("retired after %d ticks, before the %d-tick default window", elapsed, window)
	}
	if rep.Deliveries < 2 {
		t.Fatalf("receiver saw %d deliveries, want a stream of them", rep.Deliveries)
	}
}
