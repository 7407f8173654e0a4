package control

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/session"
	"repro/internal/transport"
)

func ctlParams() rstp.Params { return rstp.Params{C1: 2, C2: 3, D: 12} }

func newCtl(t *testing.T, mut func(*Config)) *Controller {
	t.Helper()
	cfg := Config{
		Registry: obs.NewRegistry(),
		Clock:    transport.NewClock(time.Nanosecond),
		Params:   ctlParams(),
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

func forceLevel(c *Controller, l Level) {
	c.mu.Lock()
	c.ladder.level = l
	c.mu.Unlock()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Clock: transport.NewClock(0), Params: ctlParams()}); err == nil {
		t.Error("nil Registry accepted")
	}
	if _, err := New(Config{Registry: obs.NewRegistry(), Params: ctlParams()}); err == nil {
		t.Error("nil Clock accepted")
	}
	if _, err := New(Config{Registry: obs.NewRegistry(), Clock: transport.NewClock(0)}); err == nil {
		t.Error("zero Params accepted")
	}
}

// TestAdmitRecordsAndForgets walks one ID through the controller's
// session-tracking life cycle: admitted → accepted server-side →
// forgotten. Late frames of a forgotten session are the server's to drop
// (internal/session's TestTransferGivenUpBeforeSpawnLeavesNoGhost and
// TestLateFrameDoesNotRespawnFinishedSession).
func TestAdmitRecordsAndForgets(t *testing.T) {
	c := newCtl(t, nil)
	if err := c.Admit(context.Background(), 7); err != nil {
		t.Fatalf("Admit at normal level: %v", err)
	}
	if !c.AdmitServer(7) {
		t.Error("admitted ID refused server-side")
	}
	if !c.AdmitServer(9) {
		t.Error("unknown ID refused at LevelNormal")
	}
	c.Forget(7)
	c.Forget(7) // idempotent
	c.mu.Lock()
	_, kept := c.admitted[7]
	c.mu.Unlock()
	if kept {
		t.Error("forgotten ID still admitted")
	}
	// Re-admission under the same ID (the restart path) records it again.
	if err := c.Admit(context.Background(), 7); err != nil {
		t.Fatalf("re-Admit: %v", err)
	}
	if !c.AdmitServer(7) {
		t.Error("re-admitted ID refused server-side")
	}
}

func TestRefuseLevel(t *testing.T) {
	c := newCtl(t, nil)
	forceLevel(c, LevelRefuse)
	if err := c.Admit(context.Background(), 1); !errors.Is(err, session.ErrAdmissionRefused) {
		t.Fatalf("Admit at refuse level: %v, want ErrAdmissionRefused", err)
	}
	if c.AdmitServer(2) {
		t.Error("unknown server ID admitted at refuse level")
	}
	st := c.State()
	if st.DialRefused != 1 || st.ServerRefused != 1 {
		t.Errorf("refusal counters = %d/%d, want 1/1", st.DialRefused, st.ServerRefused)
	}
}

// TestPacingSeededDeterminism: two controllers with the same seed inject
// exactly the same jittered delays; the seed is the whole story.
func TestPacingSeededDeterminism(t *testing.T) {
	run := func(seed int64) int64 {
		c := newCtl(t, func(cfg *Config) {
			cfg.Seed = seed
			cfg.PaceTicks = 64
		})
		forceLevel(c, LevelPace)
		for id := uint32(1); id <= 100; id++ {
			if err := c.Admit(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		return c.State().PaceTicks
	}
	a, b := run(42), run(42)
	if a != b {
		t.Errorf("same seed, different total pace: %d vs %d ticks", a, b)
	}
	if a == 0 {
		t.Error("pace level injected no delay")
	}
	if c := run(43); c == a {
		t.Errorf("seeds 42 and 43 produced identical jitter (%d ticks over 100 admissions)", a)
	}
}

// tickN runs n control ticks, each one Interval after the last on the
// test clock, calling before ahead of each.
func tickN(c *Controller, n int, before func()) {
	for i := 0; i < n; i++ {
		if before != nil {
			before()
		}
		time.Sleep(time.Microsecond) // the 1ns-tick clock advances past any dwell
		c.tick()
	}
}

// TestTickSilentSessionStaysNormal is the regression test for the false
// stall: a live session that has not written yet is not overload. Eight
// windows with one active session and zero writes leave the pressure at
// 0 and the ladder at normal.
func TestTickSilentSessionStaysNormal(t *testing.T) {
	c := newCtl(t, func(cfg *Config) {
		cfg.Interval = 1
		cfg.Dwell = 1
	})
	c.Bind(Actuators{Active: func() int64 { return 1 }})
	tickN(c, 8, nil)
	st := c.State()
	if st.Ticks != 8 {
		t.Fatalf("ticks = %d, want 8", st.Ticks)
	}
	if st.Pressure != 0 || st.Level != LevelNormal.String() {
		t.Errorf("8 silent windows: level %s pressure %v, want normal/0", st.Level, st.Pressure)
	}
	if st.LevelDwellTicks[LevelNormal.String()] != 8 {
		t.Errorf("dwell = %v, want all 8 ticks at normal", st.LevelDwellTicks)
	}
}

// TestTickRefusedFramesReachRefuse: a refused-frame delta at the server
// is overload by definition and still climbs the ladder, one rung per
// dwell, to refuse; once refusals stop it walks back to normal.
func TestTickRefusedFramesReachRefuse(t *testing.T) {
	c := newCtl(t, func(cfg *Config) {
		cfg.Interval = 1
		cfg.Dwell = 1
	})
	c.Bind(Actuators{Active: func() int64 { return 1 }})
	tickN(c, 4, func() { c.refused.Add(2 * 64) }) // pressure 2 per window at RefuseScale 64
	st := c.State()
	if st.Pressure != 2 || st.Level != LevelRefuse.String() {
		t.Fatalf("4 refusing windows: level %s pressure %v, want refuse/2", st.Level, st.Pressure)
	}
	if err := c.Admit(context.Background(), 1); !errors.Is(err, session.ErrAdmissionRefused) {
		t.Errorf("Admit after the climb: %v, want ErrAdmissionRefused", err)
	}
	tickN(c, 4, nil)
	if st := c.State(); st.Pressure != 0 || st.Level != LevelNormal.String() {
		t.Errorf("after refusals stop: level %s pressure %v, want normal/0", st.Level, st.Pressure)
	}
}

// TestTickActiveLockOrder is the lock-order regression test for the
// controller↔server pair: the server holds its own lock while it calls
// AdmitServer, and Server.ActiveCount takes that lock. A control tick
// or an admission at the occupancy gate that called Active while
// holding c.mu deadlocked against such a caller.
func TestTickActiveLockOrder(t *testing.T) {
	c := newCtl(t, func(cfg *Config) { cfg.TargetSessions = 2 })
	var srvMu sync.Mutex // stands in for the server's lock
	inActive := make(chan struct{}, 1)
	c.Bind(Actuators{Active: func() int64 {
		inActive <- struct{}{}
		srvMu.Lock()
		defer srvMu.Unlock()
		return 1
	}})

	srvMu.Lock() // the server is routing a frame
	ticked := make(chan struct{})
	go func() {
		c.tick()
		if err := c.Admit(context.Background(), 2); err != nil {
			t.Errorf("Admit below the occupancy target: %v", err)
		}
		close(ticked)
	}()
	<-inActive // the gate is waiting for the server's lock
	admitted := make(chan struct{})
	go func() {
		c.AdmitServer(1) // still under the server's lock
		srvMu.Unlock()
		close(admitted)
	}()
	for _, ch := range []chan struct{}{admitted, ticked} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("AdmitServer deadlocked against the controller: Active was called under the controller's lock")
		}
	}
}

// TestStateAndMetricsExposed checks the introspection surface: the
// "control" live hook and the rstp_control_* series rendered through
// the registry's JSON snapshot.
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
	for _, name := range []string{
		"rstp_control_level", "rstp_control_pressure",
		"rstp_control_ticks_total",
		"rstp_control_paced_total", "rstp_control_pace_ticks_total",
		"rstp_control_gated_total", "rstp_control_gate_ticks_total",
		"rstp_control_dial_refused_total", "rstp_control_server_refused_total",
		"rstp_control_dwell_normal_ticks_total", "rstp_control_dwell_pace_ticks_total",
		"rstp_control_dwell_refuse_ticks_total",
	} {
		if !found[name] {
			t.Errorf("metric %s not registered", name)
		}
	}
	// The controller sheds load, never sessions, and selects no k: the
	// series of the deleted rungs, family switch and k gauge are gone.
	for _, name := range []string{
		"rstp_control_k",
		"rstp_control_evictions_total", "rstp_control_retires_total",
		"rstp_control_family_switches_total", "rstp_control_dwell_evict_ticks_total",
		"rstp_control_dwell_retire_ticks_total",
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
	if _, ok := fields["level"]; !ok {
		t.Errorf("/control JSON has no level: %s", raw)
	}
	for _, key := range []string{"k", "k_histogram", "candidates"} {
		if _, ok := fields[key]; ok {
			t.Errorf("/control JSON still carries %q: %s", key, raw)
		}
	}
}

// TestStartStopIdempotent: the lifecycle must survive double calls and
// release a paced admission on Stop.
func TestStartStopIdempotent(t *testing.T) {
	c := newCtl(t, func(cfg *Config) { cfg.PaceTicks = 1 << 40 }) // pace would sleep ~forever
	c.Start()
	c.Start()
	forceLevel(c, LevelPace)
	done := make(chan error, 1)
	go func() {
		done <- c.Admit(context.Background(), 1)
	}()
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	c.Stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("paced admission after Stop: %v, want released nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop left a paced admission sleeping")
	}
}
