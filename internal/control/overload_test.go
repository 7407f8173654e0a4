package control

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
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

// bottleneck is a fixed-rate link model: it serves at most Cap frames
// per tick, FIFO, with a one-tick base latency; excess sends queue
// behind earlier ones, so delivery delay grows without bound while the
// offered load exceeds Cap and drains when it falls below — the
// congestion-collapse regime the occupancy gate exists for. (A real
// DelayPolicy would bound delay by d; overload is exactly the regime
// where that promise breaks.)
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

// soakResult aggregates one overload run.
type soakResult struct {
	attempted  int64 // sessions the dialer opened
	completed  int64 // Y = X within the per-session deadline
	incomplete int64 // opened but timed out
	violations int64 // prefix-safety failures (must be zero, always)

	mu             sync.Mutex
	firstViolation string
}

// runOverloadSoak drives a 2×-capacity session flood through one
// transport stack — workers concurrent generators against a server
// capped at soakServerSlots receiver slots — for dur, with the occupancy
// gate on or off, and reports goodput plus the gate's final state.
// Everything seeded: mem transport, hardened beta sessions, shared
// registry.
func runOverloadSoak(t testing.TB, gate bool, workers int, dur, perSession time.Duration, seed int64) (*soakResult, State) {
	t.Helper()
	const soakServerSlots = 8
	p := ctlParams()
	clock := transport.NewClock(20 * time.Microsecond)
	// The link serves 1 frame/tick: the server's 8 receiver slots fit
	// comfortably (~0.4 frames/tick), the flood's extra transmitters do
	// not — uncontrolled, the queue grows roughly one tick per tick and
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

	base := session.Config{
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

	var ctrl *Controller
	if gate {
		ctrl, err = New(Config{
			Registry: reg, Clock: clock, Params: p,
			Seed:           seed,
			TargetSessions: soakServerSlots,
		})
		if err != nil {
			t.Fatal(err)
		}
		srvCfg.Admission = ctrl
		dlrCfg.Admission = ctrl
	}

	srv, err := session.NewServer(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dlr, err := session.NewDialer(dlrCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dlr.Close()

	if ctrl != nil {
		ctrl.Bind(Actuators{Active: func() int64 { return int64(srv.ActiveCount()) }})
		defer ctrl.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	r := &soakResult{}
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
				if v := session.PrefixCheck(x, rx.Y); v != "" {
					if atomic.AddInt64(&r.violations, 1) == 1 {
						r.mu.Lock()
						r.firstViolation = v
						r.mu.Unlock()
					}
				}
				if werr == nil && rx.Writes == len(x) {
					atomic.AddInt64(&r.completed, 1)
				} else {
					atomic.AddInt64(&r.incomplete, 1)
				}
			}
		}(w)
	}
	wg.Wait()

	var st State
	if ctrl != nil {
		st = ctrl.State()
	}
	if os.Getenv("SOAK_DEBUG") == "1" {
		snap := reg.Snapshot()
		t.Logf("soak debug: ticks=%d sends=%d delivered=%d refused_frames=%d delivery p50/p99=%d/%d margin p50/p99=%d/%d",
			clock.Now(), snap.Counters["rstp_mem_sends_total"], snap.Counters["rstp_mem_delivered_total"],
			snap.Counters["rstp_server_frames_refused_total"],
			snap.Histograms["rstp_transport_delivery_ticks"].P50, snap.Histograms["rstp_transport_delivery_ticks"].P99,
			snap.Histograms["rstp_deadline_margin_ticks"].P50, snap.Histograms["rstp_deadline_margin_ticks"].P99)
	}
	return r, st
}

// fullSoakEnabled gates the long nightly variants behind RSTP_FULL_SOAK.
func fullSoakEnabled() bool { return os.Getenv("RSTP_FULL_SOAK") == "1" }

// TestOverloadRampAdaptiveVsBaseline is the PR-time overload proof: a
// 2×-capacity admission flood (32 generators offering roughly twice
// what the bottleneck link carries, against 8 receiver slots) run twice
// under identical seeds — once uncontrolled, once behind the occupancy
// gate — asserting the safety and graceful-degradation contract: zero
// prefix violations anywhere, the gate visibly engaged, and gated
// goodput no worse than the uncontrolled baseline.
// The nightly full ramp (TestOverloadRampFull) tightens the comparison
// to strictly better.
func TestOverloadRampAdaptiveVsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak skipped in -short")
	}
	const workers = 32
	dur, per := 1500*time.Millisecond, 150*time.Millisecond

	baseline, _ := runOverloadSoak(t, false, workers, dur, per, 11)
	adaptive, st := runOverloadSoak(t, true, workers, dur, per, 11)

	for _, run := range []struct {
		name string
		r    *soakResult
	}{{"baseline", baseline}, {"adaptive", adaptive}} {
		if run.r.violations != 0 {
			t.Fatalf("%s: %d prefix violations (first: %s) — overload must never corrupt output",
				run.name, run.r.violations, run.r.firstViolation)
		}
	}
	t.Logf("baseline: %d completed / %d attempted (%d incomplete)",
		baseline.completed, baseline.attempted, baseline.incomplete)
	t.Logf("adaptive: %d completed / %d attempted (%d incomplete); gate: %+v",
		adaptive.completed, adaptive.attempted, adaptive.incomplete, st)

	if adaptive.completed == 0 {
		t.Fatal("adaptive run completed no sessions under 2× load")
	}
	if st.Gated == 0 {
		t.Errorf("gate never engaged under 2× load: %+v", st)
	}
	if adaptive.completed < baseline.completed {
		t.Errorf("graceful degradation failed: adaptive completed %d < baseline %d",
			adaptive.completed, baseline.completed)
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

	baseline, _ := runOverloadSoak(t, false, workers, dur, per, 23)
	adaptive, st := runOverloadSoak(t, true, workers, dur, per, 23)

	if baseline.violations != 0 || adaptive.violations != 0 {
		t.Fatalf("prefix violations: baseline=%d adaptive=%d (first: %s%s)",
			baseline.violations, adaptive.violations, baseline.firstViolation, adaptive.firstViolation)
	}
	t.Logf("baseline: %d completed, %d incomplete", baseline.completed, baseline.incomplete)
	t.Logf("adaptive: %d completed, %d incomplete, gate %+v", adaptive.completed, adaptive.incomplete, st)
	if st.Gated == 0 {
		t.Errorf("gate never engaged under 2× load: %+v", st)
	}
	if adaptive.completed <= baseline.completed {
		t.Errorf("full ramp: adaptive goodput %d not strictly above baseline %d",
			adaptive.completed, baseline.completed)
	}
	// Bounded deadline-miss rate: the controlled run must not fail more
	// than half of what it admits — admission control exists precisely so
	// admitted work completes.
	if adaptive.incomplete > adaptive.completed {
		t.Errorf("adaptive run failed more sessions (%d) than it completed (%d)",
			adaptive.incomplete, adaptive.completed)
	}
}
