package session

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// bottleneck is a fixed-rate link model: it serves at most Cap frames
// per tick, FIFO, with a one-tick base latency; excess sends queue
// behind earlier ones, so delivery delay grows without bound while the
// offered load exceeds Cap and drains when it falls below — the
// congestion-collapse regime admission exists for. (A real DelayPolicy
// would bound delay by d; overload is exactly the regime where that
// promise breaks.)
type bottleneck struct {
	mu   sync.Mutex
	cap  int64 // frames per tick
	next int64 // next free service slot, in 1/cap-tick units
}

func (b *bottleneck) Name() string { return fmt.Sprintf("bottleneck(cap=%d/tick)", b.cap) }

func (b *bottleneck) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if earliest := (sendTime + 1) * b.cap; b.next < earliest {
		b.next = earliest
	}
	at := b.next / b.cap
	b.next++
	return []int64{at}
}

// soakServerSlots is the overload server's MaxSessions: the slot count
// a capped dialer matches.
const soakServerSlots = 8

// soakResult aggregates one overload run.
type soakResult struct {
	attempted  int64 // sessions the dialer opened
	completed  int64 // Y = X within the per-session deadline
	incomplete int64 // opened but timed out
	violations int64 // prefix-safety failures (must be zero, always)
	// perWorker counts each generator's completed sessions: a worker at
	// 0 waited the whole soak for a slot or never finished a session.
	perWorker []int64

	mu             sync.Mutex
	firstViolation string
}

// starved returns the workers that completed no session.
func (r *soakResult) starved() []int {
	var idle []int
	for w, n := range r.perWorker {
		if n == 0 {
			idle = append(idle, w)
		}
	}
	return idle
}

// runOverloadSoak drives a 2×-capacity session flood through one
// transport stack — workers concurrent generators against a server with
// soakServerSlots receiver slots — for dur. A capped dialer has the
// server's slot count, so excess dials park on its semaphore before
// they send a frame; an uncapped one has 4×workers slots and puts every
// generator on the link at once. Everything seeded: mem transport,
// hardened β(4) sessions, shared registry.
func runOverloadSoak(t testing.TB, capped bool, workers int, dur, perSession time.Duration, seed int64) *soakResult {
	t.Helper()
	p := testParams()
	clock := transport.NewClock(20 * time.Microsecond)
	// The link serves 1 frame/tick: the server's 8 receiver slots fit
	// comfortably (~0.4 frames/tick), the flood's extra transmitters do
	// not — uncapped, the queue grows roughly one tick per tick and
	// delivery delay leaves the per-session deadline behind entirely.
	link := &bottleneck{cap: 1}
	mem := transport.NewMem(clock, transport.MemOptions{D: p.D, Delay: link, Buffer: 1 << 12})
	defer mem.Close()
	reg := obs.NewRegistry()
	transport.Instrument(reg, mem)

	// Both arms serve one stack, hardened β(4), on 30-bit inputs (five
	// of its blocks).
	s, err := rstp.Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	xBits := 5 * s.BlockBits

	base := Config{
		Solution:   rstp.Harden(s, rstp.HardenOptions{}),
		Params:     p,
		Transport:  mem,
		Clock:      clock,
		Obs:        reg,
		TraceLimit: -1,
	}
	srvCfg, dlrCfg := base, base
	srvCfg.MaxSessions = soakServerSlots
	dlrCfg.MaxSessions = 4 * workers
	if capped {
		dlrCfg.MaxSessions = soakServerSlots
	}

	srv, err := NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dlr, err := NewDialer(dlrCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dlr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	r := &soakResult{perWorker: make([]int64, workers)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*1009))
			for ctx.Err() == nil {
				x := wire.RandomBits(xBits, rng.Uint64)
				conn, err := dlr.Start(ctx, x)
				if err != nil {
					return // soak over or dialer closed
				}
				atomic.AddInt64(&r.attempted, 1)
				wctx, wcancel := context.WithTimeout(ctx, perSession)
				rx, werr := srv.WaitWrites(wctx, conn.ID(), len(x))
				wcancel()
				conn.Close()
				if rep, ok := srv.Evict(conn.ID()); ok {
					rx = rep
				}
				if v := PrefixCheck(x, rx.Y); v != "" {
					if atomic.AddInt64(&r.violations, 1) == 1 {
						r.mu.Lock()
						r.firstViolation = v
						r.mu.Unlock()
					}
				}
				if werr == nil && rx.Writes == len(x) {
					atomic.AddInt64(&r.completed, 1)
					r.perWorker[w]++
				} else {
					atomic.AddInt64(&r.incomplete, 1)
				}
			}
		}(w)
	}
	wg.Wait()

	if os.Getenv("SOAK_DEBUG") == "1" {
		snap := reg.Snapshot()
		t.Logf("soak debug: ticks=%d sends=%d delivered=%d refused_frames=%d delivery p50/p99=%d/%d",
			clock.Now(), snap.Counters["rstp_mem_sends_total"], snap.Counters["rstp_mem_delivered_total"],
			snap.Counters["rstp_server_frames_refused_total"],
			snap.Histograms["rstp_transport_delivery_ticks"].P50, snap.Histograms["rstp_transport_delivery_ticks"].P99)
	}
	return r
}

// checkRamp asserts the contract both overload tests share: zero prefix
// violations in either arm, and every capped generator completing at
// least one session — the FIFO slot handoff bounds each dial's wait.
func checkRamp(t *testing.T, uncapped, capped *soakResult) {
	t.Helper()
	for _, run := range []struct {
		name string
		r    *soakResult
	}{{"uncapped", uncapped}, {"capped", capped}} {
		if run.r.violations != 0 {
			t.Fatalf("%s: %d prefix violations (first: %s) — overload must never corrupt output",
				run.name, run.r.violations, run.r.firstViolation)
		}
		t.Logf("%s: %d completed / %d attempted (%d incomplete); per worker %v",
			run.name, run.r.completed, run.r.attempted, run.r.incomplete, run.r.perWorker)
	}
	if idle := capped.starved(); len(idle) > 0 {
		t.Errorf("capped: workers %v completed no session — a parked dial waited out the whole soak", idle)
	}
}

// fullSoakEnabled gates the long nightly variants behind RSTP_FULL_SOAK.
func fullSoakEnabled() bool { return os.Getenv("RSTP_FULL_SOAK") == "1" }

// TestOverloadRampCapVsUncapped is the PR-time overload proof: a
// 2×-capacity session flood (32 generators offering roughly twice what
// the bottleneck link carries, against 8 receiver slots) run twice
// under identical seeds — once with the dialer uncapped at 4×workers,
// once capped at the server's 8 slots — asserting zero prefix
// violations anywhere, capped goodput no worse than uncapped, and every
// capped generator completing a session. The nightly full ramp
// (TestOverloadRampFull) tightens the comparison to strictly better.
func TestOverloadRampCapVsUncapped(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak skipped in -short")
	}
	const workers = 32
	dur, per := 1500*time.Millisecond, 150*time.Millisecond

	uncapped := runOverloadSoak(t, false, workers, dur, per, 11)
	capped := runOverloadSoak(t, true, workers, dur, per, 11)
	checkRamp(t, uncapped, capped)
	if capped.completed < uncapped.completed {
		t.Errorf("graceful degradation failed: capped completed %d < uncapped %d",
			capped.completed, uncapped.completed)
	}
}

// TestOverloadRampFull is the nightly 2× ramp: longer soak, strict
// goodput win and a bounded failure rate. Enable with RSTP_FULL_SOAK=1
// (the nightly CI job does); it is skipped otherwise to keep PR runs
// fast and flake-free.
func TestOverloadRampFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full ramp skipped in -short")
	}
	if !fullSoakEnabled() {
		t.Skip("full 2× ramp runs nightly (set RSTP_FULL_SOAK=1)")
	}
	const workers = 32
	dur, per := 6*time.Second, 200*time.Millisecond

	uncapped := runOverloadSoak(t, false, workers, dur, per, 23)
	capped := runOverloadSoak(t, true, workers, dur, per, 23)
	checkRamp(t, uncapped, capped)
	if capped.completed <= uncapped.completed {
		t.Errorf("full ramp: capped goodput %d not strictly above uncapped %d",
			capped.completed, uncapped.completed)
	}
	// Bounded deadline-miss rate: the capped run must not fail more
	// sessions than it completes — admission exists precisely so
	// admitted work completes.
	if capped.incomplete > capped.completed {
		t.Errorf("capped run failed more sessions (%d) than it completed (%d)",
			capped.incomplete, capped.completed)
	}
}
