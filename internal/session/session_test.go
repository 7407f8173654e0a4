package session

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
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

// countingAdmission is an AdmissionController that admits everything
// and counts the Admit and Forget calls it sees.
type countingAdmission struct {
	mu              sync.Mutex
	admits, forgets int
}

func (c *countingAdmission) Admit(context.Context, uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admits++
	return nil
}

func (c *countingAdmission) Forget(uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forgets++
}

func (c *countingAdmission) counts() (admits, forgets int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admits, c.forgets
}

// TestFailedStartForgetsAdmission pins the admission bookkeeping of a
// Start that fails after Admit: an input that is not a whole number of
// blocks, and a dialer closed under the caller. Each Admit is matched by
// a Forget, so the occupancy gate never counts a phantom session.
func TestFailedStartForgetsAdmission(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	defer mem.Close()
	adm := &countingAdmission{}
	cfg.Admission = adm
	d, err := NewDialer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := d.Start(ctx, inputFor(t, sol, 1, 1)[1:]); err == nil {
		t.Fatal("Start accepted an input that is not a whole number of blocks")
	}
	if a, f := adm.counts(); a != 1 || f != 1 {
		t.Fatalf("misaligned Start: %d admits, %d forgets, want 1/1", a, f)
	}
	conn, err := d.Start(ctx, inputFor(t, sol, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	d.Close()
	if _, err := d.Start(ctx, inputFor(t, sol, 1, 3)); err == nil {
		t.Fatal("Start succeeded on a closed dialer")
	}
	if a, f := adm.counts(); a != f {
		t.Fatalf("after a session and a Start on a closed dialer: %d admits, %d forgets", a, f)
	}
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

// TestCapRefusesNewcomerUntilSlotFrees pins the server's one overload
// policy: at the MaxSessions cap a newcomer is refused and every
// incumbent keeps its slot; once one retires, the newcomer's next frame
// (a retransmission) is admitted into the freed slot.
func TestCapRefusesNewcomerUntilSlotFrees(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	cfg.MaxSessions = 2
	cfg.IdleTicks = -1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	srv.route(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)})
	srv.route(wire.Frame{Session: 2, Dir: wire.TtoR, Seq: 2, P: wire.DataPacket(1)})
	srv.route(wire.Frame{Session: 3, Dir: wire.TtoR, Seq: 3, P: wire.DataPacket(1)})
	if srv.lookup(3) != nil || srv.Refused() != 1 {
		t.Fatalf("newcomer at the cap: spawned=%v refused=%d, want refused once", srv.lookup(3) != nil, srv.Refused())
	}
	if srv.lookup(1) == nil || srv.lookup(2) == nil {
		t.Fatal("an incumbent lost its slot to the newcomer")
	}
	if rep, ok := srv.Evict(1); !ok || !rep.Finished {
		t.Fatalf("Evict(1) = %+v, %v; want its finished report", rep, ok)
	}
	srv.route(wire.Frame{Session: 3, Dir: wire.TtoR, Seq: 4, P: wire.DataPacket(1)})
	if srv.lookup(3) == nil {
		t.Fatal("newcomer's retransmission not admitted once a slot freed")
	}
	if srv.Refused() != 1 || srv.ActiveCount() != 2 {
		t.Fatalf("refused=%d active=%d, want 1 and 2", srv.Refused(), srv.ActiveCount())
	}
}

// TestEvictedFrameDroppedWhileRetiring pins the ghost window around a
// retirement at the cap: Evict retires the session synchronously, so a
// straggler routed right after it already meets the tombstone and drops
// as late instead of respawning the session into the slot it just freed.
func TestEvictedFrameDroppedWhileRetiring(t *testing.T) {
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
	srv.route(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)})
	if srv.lookup(1) == nil {
		t.Fatal("session 1 not spawned by direct route")
	}
	if _, ok := srv.Evict(1); !ok {
		t.Fatal("Evict(1) handed over no report")
	}
	srv.route(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 3, P: wire.DataPacket(1)})
	if ep := srv.lookup(1); ep != nil {
		t.Fatal("evicted session respawned by its straggler")
	}
	if srv.Late() != 1 {
		t.Fatalf("late = %d, want 1 (the straggler)", srv.Late())
	}
	srv.route(wire.Frame{Session: 2, Dir: wire.TtoR, Seq: 2, P: wire.DataPacket(1)})
	if srv.lookup(2) == nil {
		t.Fatal("newcomer not admitted into the freed slot")
	}
	if srv.Refused() != 0 {
		t.Fatalf("refused = %d, want 0", srv.Refused())
	}
}

// TestWaitWritesUnspawnedHitsDeadline: WaitWrites callers parked on a
// session that never spawns return the context's error at its deadline,
// and the last of them drops the parked entry.
func TestWaitWritesUnspawnedHitsDeadline(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := srv.WaitWrites(ctx, 7, 1)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != context.DeadlineExceeded {
			t.Fatalf("WaitWrites on an unspawned session = %v, want %v", err, context.DeadlineExceeded)
		}
	}
	srv.mu.Lock()
	parked := len(srv.spawnWaits)
	srv.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d spawn waits left parked after the deadline", parked)
	}
}

// TestEvictUnspawnedWakesWaiters: evicting a session the server never
// spawned tombstones it, and a WaitWrites caller parked on its spawn
// returns at once with the tombstone instead of waiting out its context.
func TestEvictUnspawnedWakesWaiters(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer mem.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 1)
	go func() {
		rep, err := srv.WaitWrites(ctx, 7, 1)
		if err == nil || !rep.Finished {
			err = fmt.Errorf("WaitWrites = %+v, %v; want the tombstone and an error", rep, err)
		} else {
			err = nil
		}
		errs <- err
	}()
	for {
		srv.mu.Lock()
		parked := srv.spawnWaits[7] != nil
		srv.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := srv.Evict(7); ok {
		t.Fatal("Evict of an unspawned session handed over a report")
	}
	if err := <-errs; err != nil || ctx.Err() != nil {
		t.Fatalf("after Evict: %v (ctx %v)", err, ctx.Err())
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

// TestTransferGivenUpBeforeSpawnLeavesNoGhost: a transfer whose context
// expires before its first frame lands is evicted at a server that never
// spawned it. Its frames still in flight must drop as late at the
// tombstone, not spawn a ghost receiver that would hold a MaxSessions
// slot until Close (idle eviction is off).
func TestTransferGivenUpBeforeSpawnLeavesNoGhost(t *testing.T) {
	sol := mustBeta(t, 4)
	// Every frame takes d = 12 ticks of 4 ms; the transmitter steps every
	// c2 = 3 ticks, so it sends before the 30 ms deadline and nothing
	// lands before 48 ms.
	clock := transport.NewClock(4 * time.Millisecond)
	mem := transport.NewMem(clock, transport.MemOptions{D: testParams().D, Delay: chanmodel.MaxDelay{D: testParams().D}, Buffer: 1 << 10})
	cfg := testConfig(t, sol, mem, clock)
	cfg.IdleTicks = -1
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := pipe.Transfer(ctx, inputFor(t, sol, 4, 3)); err != context.DeadlineExceeded {
		t.Fatalf("transfer = %v, want %v", err, context.DeadlineExceeded)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pipe.Server.Late() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no frame dropped as late within 5s; active sessions %d", pipe.Server.ActiveCount())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(clock.Ticks(2 * testParams().D)) // let the rest of the burst land
	if n := pipe.Server.ActiveCount(); n != 0 {
		t.Fatalf("%d ghost receivers spawned by frames of a session given up before it spawned", n)
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
