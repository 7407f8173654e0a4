package transport

import (
	"testing"
	"time"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wire"
)

// lineOf returns the delay line that carries t's fault plan.
func lineOf(t Transport) *delayLine {
	switch x := t.(type) {
	case *Mem:
		return &x.line
	case *UDP:
		return x.line
	}
	return nil
}

// openFaulty opens kind with the fault clauses, skipping the test when
// the transport is unavailable (no loopback sockets).
func openFaulty(t *testing.T, kind string, clock *Clock, d, seed int64, fs ...faults.Fault) Transport {
	t.Helper()
	tr, _, err := Open(kind, clock, d, seed, fs)
	if err != nil {
		t.Skipf("%s unavailable: %v", kind, err)
	}
	return tr
}

// TestChaosDeterministicAcrossRuns pins the fault plan's
// reproducibility: two transports with the same seed and the same send
// schedule inject the same faults (the rand stream is consumed
// per-sequence-number under one lock, exactly like the simulator's use
// of the plan).
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	run := func() (dropped, duplicated, corrupted int) {
		plan := faults.NewPlan(11, chanmodel.MaxDelay{D: 2},
			faults.Fault{From: 0, To: 1 << 50, Drop: 0.3, Dup: 0.2, Corrupt: 0.1})
		m := NewMem(testClock(), MemOptions{D: 2, Delay: plan, Buffer: 4096})
		defer m.Close()
		for i := 0; i < 300; i++ {
			if err := m.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(2)}); err != nil {
				t.Fatal(err)
			}
		}
		_, dropped, duplicated, corrupted, _ = m.line.planStats()
		return
	}
	d1, u1, c1 := run()
	d2, u2, c2 := run()
	if d1 != d2 || u1 != u2 || c1 != c2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, u1, c1, d2, u2, c2)
	}
}

// TestChaosCorruptionOverUDP is the fault plan over a real socket:
// corrupted symbols must ride real datagrams to the far side without the
// codec or the reader ever failing. Every frame is due at once, so each
// takes the line's bypass straight to the socket.
func TestChaosCorruptionOverUDP(t *testing.T) {
	tr := openFaulty(t, "udp", testClock(), 2, 7, faults.Fault{From: 0, To: 1 << 50, Corrupt: 1.0})
	defer tr.Close()
	u := tr.(*UDP)
	const n = 64
	for i := 0; i < n; i++ {
		if err := u.Send(wire.Frame{Session: 3, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(0)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, u.Deliveries(wire.TtoR), n, 5*time.Second)
	_, _, _, corrupted, _ := u.line.planStats()
	if corrupted != n {
		t.Fatalf("corrupted %d of %d frames at rate 1.0", corrupted, n)
	}
	mutated := 0
	for _, f := range got {
		if f.P.Symbol != 0 {
			mutated++
		}
	}
	if mutated != n {
		t.Fatalf("%d of %d delivered frames carry the corrupted symbol", mutated, n)
	}
	if u.Malformed() != 0 {
		t.Fatalf("symbol corruption produced %d malformed datagrams (frames must stay parseable)", u.Malformed())
	}
}

// TestChaosBlackoutWindow pins the partition clause: every frame sent
// inside the window vanishes.
func TestChaosBlackoutWindow(t *testing.T) {
	plan := faults.NewPlan(1, chanmodel.MaxDelay{D: 2}, faults.Fault{From: 0, To: 1 << 40, Blackout: true})
	m := NewMem(testClock(), MemOptions{D: 2, Delay: plan})
	defer m.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := m.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(1)}); err != nil {
			t.Fatal(err)
		}
	}
	_, dropped, _, _, _ := m.line.planStats()
	if dropped != n {
		t.Fatalf("blackout dropped %d of %d frames", dropped, n)
	}
	select {
	case f := <-m.Deliveries(wire.TtoR):
		t.Fatalf("frame %v escaped the blackout", f)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestChaosExtraDelayDelivers pins the latency-spike clause: delayed
// frames are held by the delay line's scheduler and still delivered.
// Over udp the scheduler writes them to the socket itself, and none of
// those writes may fail.
func TestChaosExtraDelayDelivers(t *testing.T) {
	for _, kind := range []string{"mem", "udp"} {
		t.Run(kind, func(t *testing.T) {
			tr := openFaulty(t, kind, testClock(), 2, 1, faults.Fault{From: 0, To: 1 << 50, ExtraDelay: 40})
			defer tr.Close()
			const n = 20
			for i := 0; i < n; i++ {
				if err := tr.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(1)}); err != nil {
					t.Fatal(err)
				}
			}
			got := collect(t, tr.Deliveries(wire.TtoR), n, 5*time.Second)
			if len(got) != n {
				t.Fatalf("delayed deliveries %d, want %d", len(got), n)
			}
			_, _, _, _, delayed := lineOf(tr).planStats()
			if delayed != n {
				t.Fatalf("delayed %d of %d frames", delayed, n)
			}
			if u, ok := tr.(*UDP); ok {
				if errs := u.sendErrs.Load(); errs != 0 {
					t.Fatalf("scheduler hit %d socket write errors", errs)
				}
			}
		})
	}
}

// TestChaosCloseIdempotentAndTerminal closes a faulty transport with a
// frame parked in its delay line: Close is idempotent, Send fails after
// it, and the delivery channels are closed (over udp, the sockets as
// well as the line).
func TestChaosCloseIdempotentAndTerminal(t *testing.T) {
	for _, kind := range []string{"mem", "udp"} {
		t.Run(kind, func(t *testing.T) {
			tr := openFaulty(t, kind, testClock(), 2, 1, faults.Fault{From: 0, To: 1 << 50, ExtraDelay: 1 << 20})
			if err := tr.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)}); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			if err := tr.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 2, P: wire.DataPacket(1)}); err != ErrClosed {
				t.Fatalf("send after close: %v, want ErrClosed", err)
			}
			if _, ok := <-tr.Deliveries(wire.TtoR); ok {
				t.Fatal("deliveries still open after close")
			}
		})
	}
}

// TestFaultWindowOpensAtFirstFrame pins where a plan's time windows
// start: at the transport's first frame, not at the clock's start. The
// clock is already past the [0, 50) drop window when the transport
// opens, yet the frames sent right after must meet it.
func TestFaultWindowOpensAtFirstFrame(t *testing.T) {
	for _, kind := range []string{"mem", "udp"} {
		t.Run(kind, func(t *testing.T) {
			clock := testClock()
			for clock.Now() < 60 {
				time.Sleep(time.Millisecond)
			}
			tr := openFaulty(t, kind, clock, 2, 5, faults.Fault{From: 0, To: 50, Drop: 1})
			defer tr.Close()
			reg := obs.NewRegistry()
			Instrument(reg, tr)
			const n = 100
			for i := 0; i < n; i++ {
				if err := tr.Send(testFrame(int64(i + 1))); err != nil {
					t.Fatal(err)
				}
			}
			if dropped := reg.Snapshot().Counters["rstp_chaos_dropped_total"]; dropped == 0 {
				t.Fatalf("no frame of %d dropped: the window opened at clock start, not at the first frame", n)
			}
		})
	}
}
