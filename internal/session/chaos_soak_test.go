package session

import (
	"context"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSoakChaosOverUDP is the bad-network soak: hardened sessions
// over a UDP whose fault plan injects ≥10% loss plus duplication and
// corruption must all complete with zero prefix violations — the chaos
// matrix running over a real kernel socket path. Short mode (PR CI)
// runs a smaller fleet; the nightly race job runs the full 256 sessions.
func TestSoakChaosOverUDP(t *testing.T) {
	sessions := 256
	if testing.Short() {
		sessions = 48
	}
	clock := transport.NewClock(50 * time.Microsecond)
	// ≥10% loss plus duplication and corruption over the first 4000
	// ticks from the transport's first frame (200ms of wall time at the
	// test tick): the whole opening burst of every session runs through
	// the adversary, and the hardened layer retransmits its way out after
	// the window closes.
	tr, _, err := transport.Open("udp", clock, testParams().D, 17,
		[]faults.Fault{{From: 0, To: 4000, Drop: 0.12, Dup: 0.05, Corrupt: 0.05}})
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	udp := tr.(*transport.UDP)
	reg := obs.NewRegistry()
	transport.Instrument(reg, udp)
	hs := rstp.Harden(mustBeta(t, 4), rstp.HardenOptions{})
	cfg := testConfig(t, hs, udp, clock)
	// The pipe evicts each session explicitly (the rstpserve setting).
	// Idle eviction must stay off: the hardened layer's capped backoff
	// can legally go quiet for 16·RTO ≈ 816 ticks, longer than the
	// default 64·D idle window, and an idle eviction mid-backoff would
	// look like a lost session.
	cfg.IdleTicks = -1
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	blockBits := mustBeta(t, 4).BlockBits
	type outcome struct {
		res TransferResult
		x   []wire.Bit
		err error
	}
	results := make(chan outcome, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			x := randomBits(blockBits, int64(1000+i))
			res, err := pipe.Transfer(ctx, x)
			results <- outcome{res: res, x: x, err: err}
		}(i)
	}
	violations, incomplete := 0, 0
	for i := 0; i < sessions; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("transfer: %v", o.err)
		}
		if o.res.Violation != "" {
			violations++
			t.Errorf("session %d prefix violation: %s", o.res.ID, o.res.Violation)
		}
		if !o.res.Completed {
			incomplete++
		}
	}
	if violations != 0 {
		t.Fatalf("%d prefix violations under chaos", violations)
	}
	if incomplete != 0 {
		t.Fatalf("%d of %d hardened sessions did not complete", incomplete, sessions)
	}
	injected := reg.Snapshot().Counters
	affected, dropped := injected["rstp_chaos_affected_total"], injected["rstp_chaos_dropped_total"]
	duplicated, corrupted := injected["rstp_chaos_duplicated_total"], injected["rstp_chaos_corrupted_total"]
	if affected == 0 || dropped == 0 {
		t.Fatalf("chaos plan injected nothing: affected=%d dropped=%d", affected, dropped)
	}
	t.Logf("chaos over %s: %d sessions complete; injected dropped=%d duplicated=%d corrupted=%d of %d affected; udp malformed=%d dropped=%d",
		udp.Name(), sessions, dropped, duplicated, corrupted, affected, udp.Malformed(), udp.Dropped())
}
