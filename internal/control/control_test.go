package control

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

func ctlParams() rstp.Params { return rstp.Params{C1: 2, C2: 3, D: 12} }

func newCtl(t *testing.T, mut func(*Config)) *Controller {
	t.Helper()
	cfg := Config{
		Registry:       obs.NewRegistry(),
		Clock:          transport.NewClock(time.Nanosecond),
		Params:         ctlParams(),
		TargetSessions: 2,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	reg, clock := obs.NewRegistry(), transport.NewClock(0)
	for name, cfg := range map[string]Config{
		"nil Registry":    {Clock: clock, Params: ctlParams(), TargetSessions: 1},
		"nil Clock":       {Registry: reg, Params: ctlParams(), TargetSessions: 1},
		"zero Params":     {Registry: reg, Clock: clock, TargetSessions: 1},
		"no target":       {Registry: reg, Clock: clock, Params: ctlParams()},
		"negative target": {Registry: reg, Clock: clock, Params: ctlParams(), TargetSessions: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestAdmitRecordsAndForgets walks one ID through the controller's
// session-tracking life cycle: admitted → forgotten → re-admitted under
// the same ID (the restart path). Late frames of a forgotten session are
// the server's to drop (internal/session's
// TestTransferGivenUpBeforeSpawnLeavesNoGhost and
// TestLateFrameDoesNotRespawnFinishedSession).
func TestAdmitRecordsAndForgets(t *testing.T) {
	c := newCtl(t, nil)
	admitted := func(id uint32) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.admitted[id]
		return ok
	}
	if err := c.Admit(context.Background(), 7); err != nil {
		t.Fatalf("Admit below the target: %v", err)
	}
	if !admitted(7) {
		t.Error("admitted ID not recorded")
	}
	c.Forget(7)
	c.Forget(7) // idempotent
	if admitted(7) {
		t.Error("forgotten ID still admitted")
	}
	if err := c.Admit(context.Background(), 7); err != nil {
		t.Fatalf("re-Admit: %v", err)
	}
	if !admitted(7) {
		t.Error("re-admitted ID not recorded")
	}
}

// parkedAdmit starts Admit(id) against a full gate and waits until it
// has parked (Gated reaches wantGated). The returned channel yields
// Admit's result.
func parkedAdmit(t *testing.T, c *Controller, id uint32, wantGated int64) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Admit(context.Background(), id) }()
	deadline := time.Now().Add(5 * time.Second)
	for c.State().Gated < wantGated {
		if time.Now().After(deadline) {
			t.Fatalf("Admit(%d) never parked at the gate: %+v", id, c.State())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Admit(%d) returned %v through a full gate", id, err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

// TestGateHoldsAndReleases: at the target occupancy Admit parks and
// counts one gated admission however often it polls, and returns once
// Active drops below the target.
func TestGateHoldsAndReleases(t *testing.T) {
	c := newCtl(t, nil)
	var active atomic.Int64
	active.Store(2)
	c.Bind(Actuators{Active: active.Load})
	done := parkedAdmit(t, c, 1, 1)
	if st := c.State(); st.Gated != 1 || st.GateTicks == 0 {
		t.Errorf("one parked admission: %+v, want gated 1 and gate ticks > 0", st)
	}
	active.Store(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released Admit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Admit still parked after Active dropped below the target")
	}
	if st := c.State(); st.Gated != 1 {
		t.Errorf("gated = %d after one admission, want 1", st.Gated)
	}
}

// TestGateCountsInFlightAdmissions: with no Active bound the gate counts
// the admissions it let in and nobody has forgotten yet.
func TestGateCountsInFlightAdmissions(t *testing.T) {
	c := newCtl(t, nil)
	for id := uint32(1); id <= 2; id++ {
		if err := c.Admit(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	done := parkedAdmit(t, c, 3, 1)
	c.Forget(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released Admit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Admit still parked after an in-flight admission was forgotten")
	}
}

// TestStopReleasesParkedAdmit: Stop is idempotent and releases an Admit
// parked at a gate that would otherwise never open; a later Admit does
// not park at all.
func TestStopReleasesParkedAdmit(t *testing.T) {
	c := newCtl(t, nil)
	c.Bind(Actuators{Active: func() int64 { return 2 }})
	done := parkedAdmit(t, c, 1, 1)
	c.Stop()
	c.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked admission after Stop: %v, want released nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop left an admission parked")
	}
	if err := c.Admit(context.Background(), 2); err != nil {
		t.Fatalf("Admit after Stop: %v", err)
	}
}

// TestAdmitHonoursContext: a parked Admit returns its caller's context
// error, and the ID is not admitted.
func TestAdmitHonoursContext(t *testing.T) {
	c := newCtl(t, nil)
	c.Bind(Actuators{Active: func() int64 { return 2 }})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.Admit(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Admit past its deadline: %v, want context.DeadlineExceeded", err)
	}
	c.mu.Lock()
	n := len(c.admitted)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d IDs admitted after a cancelled Admit, want 0", n)
	}
}

// TestGateSeededDeterminism: two controllers with the same seed inject
// exactly the same jittered gate waits; the seed is the whole story.
// Active reports a full receiver side on three polls of every four, so
// each admission parks exactly three times whatever the timer does.
func TestGateSeededDeterminism(t *testing.T) {
	run := func(seed int64) int64 {
		c := newCtl(t, func(cfg *Config) { cfg.Seed = seed })
		var polls atomic.Int64
		c.Bind(Actuators{Active: func() int64 {
			if polls.Add(1)%4 == 0 {
				return 0
			}
			return 2
		}})
		for id := uint32(1); id <= 50; id++ {
			if err := c.Admit(context.Background(), id); err != nil {
				t.Fatal(err)
			}
			c.Forget(id)
		}
		st := c.State()
		if st.Gated != 50 {
			t.Fatalf("seed %d: gated = %d, want 50", seed, st.Gated)
		}
		return st.GateTicks
	}
	a, b := run(42), run(42)
	if a != b {
		t.Errorf("same seed, different total gate wait: %d vs %d ticks", a, b)
	}
	if d := ctlParams().D; a < 150*d || a > 150*2*d {
		t.Errorf("150 parks waited %d ticks, want each in [d, 2d] = [%d, %d]", a, d, 2*d)
	}
	if c := run(43); c == a {
		t.Errorf("seeds 42 and 43 produced identical jitter (%d ticks over 150 parks)", a)
	}
}

// TestTickActiveLockOrder is the lock-order regression test for the
// controller↔server pair: the server holds its own lock while it retires
// a session, and retirement calls Forget; Server.ActiveCount takes that
// same lock. An Admit whose poll tick called Active while holding the
// controller's lock would deadlock against such a retirement.
func TestTickActiveLockOrder(t *testing.T) {
	c := newCtl(t, nil)
	var srvMu sync.Mutex // stands in for the server's lock
	inActive := make(chan struct{}, 1)
	c.Bind(Actuators{Active: func() int64 {
		inActive <- struct{}{}
		srvMu.Lock()
		defer srvMu.Unlock()
		return 1
	}})

	srvMu.Lock() // the server is retiring a session
	admitted := make(chan struct{})
	go func() {
		if err := c.Admit(context.Background(), 2); err != nil {
			t.Errorf("Admit below the occupancy target: %v", err)
		}
		close(admitted)
	}()
	<-inActive // the gate is waiting for the server's lock
	forgot := make(chan struct{})
	go func() {
		c.Forget(1) // still under the server's lock
		srvMu.Unlock()
		close(forgot)
	}()
	for _, ch := range []chan struct{}{forgot, admitted} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Forget deadlocked against Admit: Active was called under the controller's lock")
		}
	}
}

// TestFailedStartLeavesNoPhantom: a Start that fails after Admit (an
// input that is not a whole number of blocks) is forgotten, so with a
// target of one session the next valid Start is admitted at once.
func TestFailedStartLeavesNoPhantom(t *testing.T) {
	p := ctlParams()
	clock := transport.NewClock(20 * time.Microsecond)
	mem := transport.NewMem(clock, transport.MemOptions{D: p.D})
	defer mem.Close()
	c := newCtl(t, func(cfg *Config) {
		cfg.Clock = clock
		cfg.TargetSessions = 1
	})
	defer c.Stop()
	s, err := rstp.Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	dlr, err := session.NewDialer(session.Config{
		Solution: s, Params: p, Transport: mem, Clock: clock, Admission: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dlr.Close()
	x := make([]wire.Bit, 2*s.BlockBits)
	if _, err := dlr.Start(context.Background(), x[:s.BlockBits+1]); err == nil {
		t.Fatal("Start accepted an input that is not a whole number of blocks")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dlr.Start(ctx, x)
	if err != nil {
		t.Fatalf("valid Start after a failed one: %v (gate state %+v)", err, c.State())
	}
	conn.Close()
	if st := c.State(); st.Gated != 0 {
		t.Errorf("valid Start parked at the gate: %+v", st)
	}
}

// TestStateAndMetricsExposed checks the introspection surface: the
// "control" live hook and the two rstp_control_* gate series rendered
// through the registry's JSON snapshot, and nothing of the deleted
// ladder, pacing, refusal or k-selection.
func TestStateAndMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	c := newCtl(t, func(cfg *Config) { cfg.Registry = reg })
	_ = c.Admit(context.Background(), 1)
	snap := reg.Snapshot()
	found := map[string]bool{}
	for name := range snap.Counters {
		found[name] = true
	}
	for name := range snap.Gauges {
		found[name] = true
	}
	for name := range snap.Floats {
		found[name] = true
	}
	for _, name := range []string{"rstp_control_gated_total", "rstp_control_gate_ticks_total"} {
		if !found[name] {
			t.Errorf("metric %s not registered", name)
		}
	}
	for _, name := range []string{
		"rstp_control_k", "rstp_control_level", "rstp_control_pressure",
		"rstp_control_ticks_total", "rstp_control_paced_total",
		"rstp_control_pace_ticks_total", "rstp_control_dial_refused_total",
		"rstp_control_server_refused_total", "rstp_control_dwell_normal_ticks_total",
	} {
		if found[name] {
			t.Errorf("metric %s still registered", name)
		}
	}
	live, ok := snap.Live["control"]
	if !ok {
		t.Fatal("live hook \"control\" not registered")
	}
	raw, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields["gated"] == nil || fields["gate_ticks"] == nil {
		t.Errorf("/control JSON = %s, want exactly gated and gate_ticks", raw)
	}
}
