package session

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPipeMetricsEndToEnd pins the session-layer instrumentation: one
// instrumented transfer must populate the endpoint counters, the
// interwrite/deadline-margin/effort-gap histograms, the trace rings, and
// leave the active-session gauges at zero after teardown.
func TestPipeMetricsEndToEnd(t *testing.T) {
	sol := mustBeta(t, 2)
	cfg, _ := memConfig(t, sol, nil)
	reg := obs.NewRegistry()
	reg.Tracer().Enable(256, 64)
	cfg.Obs = reg
	cfg.EffortLowerBound = 2.5
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	x := inputFor(t, sol, 6, 21)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil || !res.Completed {
		t.Fatalf("transfer: err=%v completed=%v", err, res.Completed)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["rstp_session_writes_total"]; got != int64(len(x)) {
		t.Errorf("writes counter = %d, want %d", got, len(x))
	}
	if snap.Counters["rstp_session_sends_total"] == 0 {
		t.Error("sends counter never moved")
	}
	if snap.Counters["rstp_session_deliveries_total"] == 0 {
		t.Error("deliveries counter never moved")
	}
	for _, name := range []string{"rstp_interwrite_ticks", "rstp_deadline_margin_ticks", "rstp_effort_gap_ticks"} {
		if h := snap.Histograms[name]; h.Count != int64(len(x)) {
			t.Errorf("%s observed %d writes, want %d", name, h.Count, len(x))
		}
	}
	// δ1·c2 = ⌊12/2⌋·3 with the test params.
	if got := snap.Gauges["rstp_deadline_ticks"]; got != 18 {
		t.Errorf("deadline gauge = %d, want 18", got)
	}
	if got := snap.Floats["rstp_effort_bound_ticks"]; got != 2.5 {
		t.Errorf("effort bound = %v, want 2.5", got)
	}
	if got := snap.Gauges["rstp_server_sessions_active"]; got != 0 {
		t.Errorf("active sessions after teardown = %d, want 0", got)
	}

	// The trace ring for the session holds the protocol transitions.
	kinds := map[string]bool{}
	for _, ev := range reg.Tracer().Events(res.ID) {
		kinds[ev.KindName] = true
	}
	for _, want := range []string{"send", "recv", "write"} {
		if !kinds[want] {
			t.Errorf("trace for session %d missing %q events: have %v", res.ID, want, kinds)
		}
	}

	// The Prometheus exposition renders the whole set.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"rstp_session_writes_total",
		"rstp_interwrite_ticks_bucket",
		"rstp_effort_gap_ticks_bucket",
		"rstp_server_sessions_active 0",
		"rstp_dialer_sessions_active 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestLiveSessionsTable pins the JSON-only introspection hook: while a
// session is active, the live table reports it with an effort estimate
// and the effort gap against the configured bound.
func TestLiveSessionsTable(t *testing.T) {
	sol := mustBeta(t, 2)
	cfg, _ := memConfig(t, sol, nil)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.EffortLowerBound = 1.0
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	x := inputFor(t, sol, 40, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, err := pipe.Dialer.Start(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Wait for the receiver session to exist and write something, then
	// read the live table mid-transfer.
	if _, err := pipe.Server.WaitWrites(ctx, conn.ID(), 2); err != nil {
		t.Fatal(err)
	}
	live := pipe.Server.LiveSessions()
	if len(live) != 1 {
		t.Fatalf("live table has %d sessions, want 1: %+v", len(live), live)
	}
	ls := live[0]
	if ls.ID != conn.ID() || ls.Role != "receiver" || ls.Writes < 2 {
		t.Errorf("live row = %+v", ls)
	}
	snap := reg.Snapshot()
	if snap.Live["server_sessions"] == nil {
		t.Error("live hook missing from snapshot")
	}
	if got := snap.Gauges["rstp_server_sessions_active"]; got != 1 {
		t.Errorf("active gauge = %d, want 1 mid-transfer", got)
	}
}

// TestFinishedGaugeCountsTransfers pins rstp_server_sessions_finished to
// the server's running count of retired sessions: after N transfers it
// reads N.
func TestFinishedGaugeCountsTransfers(t *testing.T) {
	sol := mustBeta(t, 2)
	cfg, _ := memConfig(t, sol, nil)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const transfers = 5
	for i := 0; i < transfers; i++ {
		if res, err := pipe.Transfer(ctx, inputFor(t, sol, 2, int64(i+1))); err != nil || !res.Completed {
			t.Fatalf("transfer %d: err=%v completed=%v", i, err, res.Completed)
		}
	}
	if got := reg.Snapshot().Gauges["rstp_server_sessions_finished"]; got != transfers {
		t.Fatalf("finished gauge = %d after %d transfers", got, transfers)
	}
}
