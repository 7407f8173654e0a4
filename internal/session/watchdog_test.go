package session

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rstp"
	"repro/internal/wire"
)

// watchdogWindow is the wedge window testConfig's parameters derive for
// a given k: k·δ1·c2 ticks (δ1 = ⌊12/2⌋ = 6, c2 = 3).
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

// TestWatchdogRetiresWedgedSession pins the tentpole guarantee: a
// session with no output growth for k·δ1·c2 ticks is force-retired
// through the tombstone path, reported Wedged, and its MaxSessions slot
// freed — even with idle eviction off (the rstpserve setting, where a
// wedged session would otherwise pin its slot forever).
func TestWatchdogRetiresWedgedSession(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = -1 // only the watchdog can reclaim the slot
	cfg.WatchdogK = 4
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
	if rep.Evicted {
		t.Fatalf("wedged session double-labeled as idle-evicted: %+v", rep)
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
}

// TestWatchdogResyncBeforeRetire pins the stabilized-stack integration:
// with a session built by the stabilizing layer, the first wedge window
// triggers one ForceResync (the protocol's own recovery handshake) and
// re-arms; only the second window force-retires.
func TestWatchdogResyncBeforeRetire(t *testing.T) {
	sol := rstp.Stabilize(mustBeta(t, 4), rstp.StabilizeOptions{})
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = -1
	cfg.WatchdogK = 4
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

// TestShedEvictOldestIdle pins the overload policy: at the MaxSessions
// cap a newcomer evicts the longest-quiet session instead of being
// refused, the victim's report is marked Shed, and its late frames drop
// at the tombstone instead of respawning a ghost.
func TestShedEvictOldestIdle(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.MaxSessions = 2
	cfg.IdleTicks = -1
	cfg.Shed = ShedEvictOldestIdle
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	spawn := func(id uint32) {
		t.Helper()
		if err := mem.Send(wire.Frame{Session: id, Dir: wire.TtoR, Seq: int64(id), P: wire.DataPacket(1)}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.lookup(id) == nil {
			if time.Now().After(deadline) {
				t.Fatalf("session %d never spawned", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	spawn(1)
	time.Sleep(5 * time.Millisecond) // make session 1 clearly the quietest
	spawn(2)
	time.Sleep(5 * time.Millisecond)
	spawn(3) // at the cap: must evict session 1, not refuse
	if srv.Refused() != 0 {
		t.Fatalf("newcomer refused under evict-oldest-idle (refused=%d)", srv.Refused())
	}
	if srv.Shed() != 1 {
		t.Fatalf("shed counter %d, want 1", srv.Shed())
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep, ok := srv.Snapshot(1)
		if ok && rep.Finished {
			if !rep.Shed {
				t.Fatalf("victim not marked shed: %+v", rep)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shed victim never retired")
		}
		time.Sleep(time.Millisecond)
	}
	// A straggler of the victim must hit the tombstone, not respawn.
	srv.route(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 99, P: wire.DataPacket(1)})
	if ep := srv.lookup(1); ep != nil {
		t.Fatal("shed victim respawned by a late frame")
	}
	if srv.Late() == 0 {
		t.Fatal("victim's late frame not counted at the tombstone")
	}
	if agg := srv.Aggregate(); agg.SessionsShed != 1 || agg.Shed != 1 {
		t.Fatalf("aggregate sessionsShed=%d shed=%d, want 1/1", agg.SessionsShed, agg.Shed)
	}
}

// TestShedVictimFrameDroppedWhileRetiring pins the ghost window around a
// shed: the victim retires synchronously with the shed, so a straggler
// routed immediately afterwards already meets its tombstone and drops as
// late instead of respawning the victim.
func TestShedVictimFrameDroppedWhileRetiring(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.MaxSessions = 1
	cfg.IdleTicks = -1
	cfg.Shed = ShedEvictOldestIdle
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	srv.route(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)})
	if srv.lookup(1) == nil {
		t.Fatal("session 1 not spawned by direct route")
	}
	// Session 2 sheds session 1; session 1's straggler races retirement.
	srv.route(wire.Frame{Session: 2, Dir: wire.TtoR, Seq: 2, P: wire.DataPacket(1)})
	srv.route(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 3, P: wire.DataPacket(1)})
	if ep := srv.lookup(1); ep != nil {
		t.Fatal("victim respawned while retiring")
	}
	if srv.lookup(2) == nil {
		t.Fatal("newcomer not admitted after shed")
	}
	if srv.Late() != 1 {
		t.Fatalf("late = %d, want 1 (the straggler)", srv.Late())
	}
}

// TestCloseDuringWatchdogRetire is the race-targeted satellite: closing
// the server while watchdogs are force-retiring many sessions must not
// double-retire, deadlock, or corrupt the report set. Run under -race.
func TestCloseDuringWatchdogRetire(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = -1
	cfg.WatchdogK = 1 // every stray session wedges within δ1·c2 = 18 ticks
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
		_ = srv.Reports()
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked against watchdog retirement")
	}
	// Every session seen has exactly one authoritative report, and no
	// goroutine is still mutating: a second Close must be a cheap no-op.
	reports := srv.Reports()
	seen := map[uint32]bool{}
	for _, r := range reports {
		if seen[r.ID] {
			t.Fatalf("session %d reported twice", r.ID)
		}
		seen[r.ID] = true
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
