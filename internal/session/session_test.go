package session

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/rstp"
	"repro/internal/transport"
	"repro/internal/wire"
)

func testParams() rstp.Params { return rstp.Params{C1: 2, C2: 3, D: 12} }

func testConfig(t *testing.T, sol PairBuilder, tr transport.Transport, clock *transport.Clock) Config {
	t.Helper()
	return Config{
		Solution:  sol,
		Params:    testParams(),
		Transport: tr,
		Clock:     clock,
	}
}

func memConfig(t *testing.T, sol PairBuilder, delay chanmodel.DelayPolicy) (Config, *transport.Mem) {
	t.Helper()
	clock := transport.NewClock(50 * time.Microsecond)
	mem := transport.NewMem(clock, transport.MemOptions{D: testParams().D, Delay: delay, Buffer: 1 << 14})
	return testConfig(t, sol, mem, clock), mem
}

func randomBits(n int, seed int64) []wire.Bit {
	rng := rand.New(rand.NewSource(seed))
	return wire.RandomBits(n, rng.Uint64)
}

func inputFor(t *testing.T, sol PairBuilder, blocks int, seed int64) []wire.Bit {
	t.Helper()
	blockBits := 1
	if s, ok := sol.(rstp.Solution); ok {
		blockBits = s.BlockBits
	}
	return randomBits(blocks*blockBits, seed)
}

func mustBeta(t *testing.T, k int) rstp.Solution {
	t.Helper()
	s, err := rstp.Beta(testParams(), k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runTransfer(t *testing.T, sol PairBuilder, blocks int) TransferResult {
	t.Helper()
	cfg, _ := memConfig(t, sol, nil)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, blocks, 11)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if !res.Completed {
		t.Fatalf("session %d incomplete: writes=%d of %d, violation=%q",
			res.ID, res.RX.Writes, len(x), res.Violation)
	}
	if got := wire.BitsToString(res.RX.Y); got != wire.BitsToString(x) {
		t.Fatalf("Y != X:\nY %s\nX %s", got, wire.BitsToString(x))
	}
	return res
}

func TestTransferAlpha(t *testing.T) {
	sol, err := rstp.Alpha(testParams())
	if err != nil {
		t.Fatal(err)
	}
	res := runTransfer(t, sol, 8)
	if res.TX.Sends < 8 {
		t.Errorf("alpha sent %d packets for 8 bits", res.TX.Sends)
	}
}

func TestTransferBeta(t *testing.T) {
	res := runTransfer(t, mustBeta(t, 4), 3)
	if res.Effort() <= 0 {
		t.Errorf("effort estimate %v", res.Effort())
	}
}

func TestTransferGammaActive(t *testing.T) {
	sol, err := rstp.Gamma(testParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res := runTransfer(t, sol, 3)
	// The active protocol's receiver must have sent acknowledgements.
	if res.RX.Sends == 0 {
		t.Error("gamma receiver sent no acks through the transport")
	}
	if res.TX.Deliveries == 0 {
		t.Error("gamma transmitter saw no ack deliveries")
	}
}

// TestTransferHardenedUnderFaults reuses a faults.Plan as the mem
// transport's delay policy: the hardened wrapper must complete Y = X
// through a lossy window, exactly as it does in the simulator.
func TestTransferHardenedUnderFaults(t *testing.T) {
	p := testParams()
	plan := faults.NewPlan(5, chanmodel.MaxDelay{D: p.D},
		faults.Fault{From: 0, To: 400, Drop: 0.25, Corrupt: 0.15})
	hs := rstp.Harden(mustBeta(t, 4), rstp.HardenOptions{})
	cfg, _ := memConfig(t, hs, plan)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := randomBits(3*mustBeta(t, 4).BlockBits, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if !res.Completed {
		t.Fatalf("hardened transfer incomplete under faults: writes=%d of %d, violation=%q",
			res.RX.Writes, len(x), res.Violation)
	}
}

func TestConcurrentSessionsAllComplete(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	const sessions = 32
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type outcome struct {
		res TransferResult
		x   []wire.Bit
		err error
	}
	results := make(chan outcome, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			x := inputFor(t, sol, 1+i%3, int64(100+i))
			res, err := pipe.Transfer(ctx, x)
			results <- outcome{res: res, x: x, err: err}
		}(i)
	}
	ids := map[uint32]bool{}
	for i := 0; i < sessions; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("transfer: %v", o.err)
		}
		if !o.res.Completed {
			t.Fatalf("session %d incomplete: %q", o.res.ID, o.res.Violation)
		}
		if wire.BitsToString(o.res.RX.Y) != wire.BitsToString(o.x) {
			t.Fatalf("session %d: Y != X", o.res.ID)
		}
		if ids[o.res.ID] {
			t.Fatalf("duplicate session id %d", o.res.ID)
		}
		ids[o.res.ID] = true
	}
	agg := pipe.Server.Aggregate()
	if agg.Sessions != sessions || agg.Writes == 0 {
		t.Fatalf("aggregate: %v", agg)
	}
}

// TestStatsReuse pins the sim/stats reuse: a served session's merged
// trace must feed sim.Collect and produce consistent counters.
func TestStatsReuse(t *testing.T) {
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
		t.Fatalf("transfer: %v (completed=%v)", err, res.Completed)
	}
	st := pipe.SessionStats(res)
	if st.Writes != len(x) {
		t.Errorf("stats writes %d, want %d", st.Writes, len(x))
	}
	if st.SendsTR != res.TX.Sends {
		t.Errorf("stats t->r sends %d, endpoint counted %d", st.SendsTR, res.TX.Sends)
	}
	if st.Recvs == 0 || st.MinDelay < 0 {
		t.Errorf("delay stats missing: %+v", st)
	}
	if st.EffortPerMessage <= 0 {
		t.Errorf("effort per message %v", st.EffortPerMessage)
	}
}

func TestDialerBackpressure(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.MaxSessions = 2
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 1, 1)
	ctx := context.Background()
	c1, err := pipe.Dialer.Start(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pipe.Dialer.Start(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	// Third session must block until a slot frees.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := pipe.Dialer.Start(short, x); err == nil {
		t.Fatal("third session admitted past MaxSessions = 2")
	} else if short.Err() == nil {
		t.Fatalf("start failed for the wrong reason: %v", err)
	}
	c1.Close()
	long, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	c3, err := pipe.Dialer.Start(long, x)
	if err != nil {
		t.Fatalf("slot freed but start failed: %v", err)
	}
	c3.Close()
	c2.Close()
}

func TestServerIdleEviction(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.IdleTicks = 40 // 2ms at the 50µs test tick
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	// One stray frame opens a session that will never progress.
	if err := mem.Send(wire.Frame{Session: 42, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, ok := srv.Snapshot(42)
		if ok && rep.Evicted && rep.Finished {
			if rep.Deliveries != 1 {
				t.Fatalf("evicted session saw %d deliveries", rep.Deliveries)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session 42 not evicted; snapshot ok=%v rep=%+v", ok, rep)
		}
		time.Sleep(time.Millisecond)
	}
	agg := srv.Aggregate()
	if agg.Evicted != 1 {
		t.Fatalf("aggregate evicted %d, want 1", agg.Evicted)
	}
}

func TestServerMaxSessionsRefusesNew(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.MaxSessions = 1
	cfg.IdleTicks = -1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	if err := mem.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)}); err != nil {
		t.Fatal(err)
	}
	// Wait for session 1 to exist, then overflow with session 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := srv.Snapshot(1); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session 1 never spawned")
		}
		time.Sleep(time.Millisecond)
	}
	if err := mem.Send(wire.Frame{Session: 2, Dir: wire.TtoR, Seq: 2, P: wire.DataPacket(1)}); err != nil {
		t.Fatal(err)
	}
	for {
		if srv.Refused() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("over-limit session not refused (refused=%d)", srv.Refused())
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := srv.Snapshot(2); ok {
		t.Fatal("session 2 spawned past MaxSessions = 1")
	}
}

func TestTransferOverUDP(t *testing.T) {
	udp, err := transport.NewUDPLoopback(1 << 12)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	clock := transport.NewClock(50 * time.Microsecond)
	sol := mustBeta(t, 4)
	cfg := testConfig(t, sol, udp, clock)
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const sessions = 8
	done := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func(i int) {
			x := inputFor(t, sol, 2, int64(i+1))
			res, err := pipe.Transfer(ctx, x)
			if err == nil && !res.Completed {
				err = context.DeadlineExceeded
			}
			done <- err
		}(i)
	}
	for i := 0; i < sessions; i++ {
		if err := <-done; err != nil {
			t.Fatalf("udp transfer: %v", err)
		}
	}
}

// TestLateFrameDoesNotRespawnFinishedSession pins the tombstone: after a
// session retires, in-flight stragglers under its ID (retransmissions up
// to D ticks behind the eviction) must be dropped, not spawn a ghost
// receiver that would pin a MaxSessions slot (forever, with idle
// eviction disabled) and count as a second session.
func TestLateFrameDoesNotRespawnFinishedSession(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.IdleTicks = -1 // the rstpserve/loadtest setting: a ghost would never be torn down
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 1, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil || !res.Completed {
		t.Fatalf("transfer: %v (completed=%v)", err, res.Completed)
	}
	// A straggler frame for the finished session arrives after eviction.
	pipe.Server.route(wire.Frame{Session: res.ID, Dir: wire.TtoR, Seq: 9999, P: wire.DataPacket(1)})
	if ep := pipe.Server.lookup(res.ID); ep != nil {
		t.Fatal("late frame respawned a ghost receiver for a finished session")
	}
	if got := pipe.Server.Late(); got != 1 {
		t.Fatalf("late counter %d, want 1", got)
	}
	if agg := pipe.Server.Aggregate(); agg.Sessions != 1 || agg.Writes != len(x) {
		t.Fatalf("finished session's counters corrupted: sessions=%d writes=%d, want 1 and %d", agg.Sessions, agg.Writes, len(x))
	}
}

// flakySend wraps a Transport, failing the first `remaining` sends with a
// transient (non-ErrClosed) error — the shape of a kernel ENOBUFS on the
// UDP transport.
type flakySend struct {
	transport.Transport
	remaining atomic.Int64
}

func (f *flakySend) Send(fr wire.Frame) error {
	if f.remaining.Add(-1) >= 0 {
		return fmt.Errorf("transient kernel send failure")
	}
	return f.Transport.Send(fr)
}

// TestTransientSendErrorsAreNotFatal pins the send-error contract: a
// transient Transport.Send failure is channel loss (counted, recorded),
// not a reason to kill the endpoint loop — only transport.ErrClosed is
// terminal. The hardened wrapper retransmits through the lost frames.
func TestTransientSendErrorsAreNotFatal(t *testing.T) {
	hs := rstp.Harden(mustBeta(t, 4), rstp.HardenOptions{})
	cfg, _ := memConfig(t, hs, nil)
	fl := &flakySend{Transport: cfg.Transport}
	fl.remaining.Store(5)
	cfg.Transport = fl
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := randomBits(2*mustBeta(t, 4).BlockBits, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if !res.Completed {
		t.Fatalf("transfer killed by transient send errors: writes=%d of %d, violation=%q",
			res.RX.Writes, len(x), res.Violation)
	}
	if res.TX.SendErrors+res.RX.SendErrors == 0 {
		t.Fatal("transient send failures not counted in SendErrors")
	}
	if res.TX.Err == "" && res.RX.Err == "" {
		t.Error("last send error not recorded in either report")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}
