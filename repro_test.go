package repro_test

import (
	"math/rand"
	"testing"

	"repro"
	"repro/internal/wire"
)

// TestPublicAPIRoundTrip exercises the documented quickstart flow through
// the public facade only.
func TestPublicAPIRoundTrip(t *testing.T) {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	for name, mk := range map[string]func() (repro.Solution, error){
		"alpha": func() (repro.Solution, error) { return repro.Alpha(p) },
		"beta":  func() (repro.Solution, error) { return repro.Beta(p, 4) },
		"gamma": func() (repro.Solution, error) { return repro.Gamma(p, 4) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			x, err := repro.ParseBits("10110011")
			if err != nil {
				t.Fatal(err)
			}
			x, pad := repro.PadToBlock(x, s.BlockBits)
			if len(x)%s.BlockBits != 0 {
				t.Fatalf("padding failed: %d bits, block %d (pad %d)", len(x), s.BlockBits, pad)
			}
			run, err := s.Run(x, repro.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if repro.BitsToString(run.Writes()) != repro.BitsToString(x) {
				t.Fatalf("Y != X")
			}
			if v := s.Verify(run, x); len(v) != 0 {
				t.Fatalf("not good: %v", v[0])
			}
		})
	}
}

// TestPublicBoundsOrdering: lower bounds sit below upper bounds for every
// exported formula, and the alpha effort is the worst of the passive ones.
func TestPublicBoundsOrdering(t *testing.T) {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	for _, k := range []int{2, 4, 16, 64} {
		plb, pub := repro.PassiveLowerBound(p, k), repro.BetaUpperBound(p, k)
		if plb > pub {
			t.Errorf("k=%d: passive LB %.3f > beta UB %.3f", k, plb, pub)
		}
		alb, aub := repro.ActiveLowerBound(p, k), repro.GammaUpperBound(p, k)
		if alb > aub {
			t.Errorf("k=%d: active LB %.3f > gamma UB %.3f", k, alb, aub)
		}
		if pub > repro.AlphaEffort(p)+1e-9 {
			t.Errorf("k=%d: beta UB %.3f exceeds alpha effort %.3f", k, pub, repro.AlphaEffort(p))
		}
	}
}

// TestPublicGenAPI covers the Section 7 facade: explicit bursts, window
// delays, and the bound degenerations.
func TestPublicGenAPI(t *testing.T) {
	base := repro.BaseGenParams(2, 3, 12)
	classic := repro.Params{C1: 2, C2: 3, D: 12}
	if got, want := repro.GenPassiveLowerBound(base, 4), repro.PassiveLowerBound(classic, 4); got != want {
		t.Errorf("gen LB at base params = %g, classic = %g", got, want)
	}
	s, err := repro.GenBetaBurst(base, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.BlockBits != 6 {
		t.Errorf("block bits = %d, want 6", s.BlockBits)
	}
	if ub := repro.GenBetaUpperBound(base, 4, 6); ub != repro.BetaUpperBound(classic, 4) {
		t.Errorf("gen UB %g != classic %g", ub, repro.BetaUpperBound(classic, 4))
	}
	rng := rand.New(rand.NewSource(9))
	win := repro.GenParams{TC1: 2, TC2: 3, RC1: 2, RC2: 3, D1: 6, D2: 12}
	ws, err := repro.GenBeta(win, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := repro.RandomBits(10*ws.BlockBits, rng.Uint64)
	run, err := ws.Run(x, repro.GenRunOptions{Delay: repro.WindowDelay(win.D1, win.D2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if repro.BitsToString(run.Writes()) != repro.BitsToString(x) {
		t.Fatal("gen run corrupted the stream")
	}
	if v := ws.Verify(run, x); len(v) != 0 {
		t.Fatalf("gen run not good: %v", v[0])
	}
	// Degenerate window delay (d1 == d2) must still deliver.
	run2, err := ws.Run(x, repro.GenRunOptions{Delay: repro.WindowDelay(12, 12, rng)})
	if err != nil {
		t.Fatal(err)
	}
	if repro.BitsToString(run2.Writes()) != repro.BitsToString(x) {
		t.Fatal("degenerate window corrupted the stream")
	}
}

// TestPublicStabilizeAPI exercises the process-fault facade: NewProcPlan,
// Stabilize / StabilizeHardened, NewMemStore, and the per-run
// Stabilization report, all through the public surface only.
func TestPublicStabilizeAPI(t *testing.T) {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	s, err := repro.Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := repro.PadToBlock(repro.RandomBits(12*s.BlockBits, rand.New(rand.NewSource(3)).Uint64), s.BlockBits)

	plan := repro.NewProcPlan(77,
		repro.ProcFault{Proc: repro.ProcTransmitter, From: 60, To: 240, Crash: true},
		repro.ProcFault{Proc: repro.ProcReceiver, From: 300, To: 460, Crash: true, Corrupt: true},
	)
	if plan.End() != 460 {
		t.Fatalf("plan heals at %d, want 460", plan.End())
	}

	ss := repro.Stabilize(s, repro.StabilizeOptions{Store: repro.NewMemStore()})
	run, err := ss.Run(x, repro.RunOptions{ProcFaults: plan, MaxTicks: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if v := ss.VerifySafety(run, x); len(v) != 0 {
		t.Fatalf("safety violated: %v", v[0])
	}
	if v := ss.VerifyComplete(run, x); len(v) != 0 {
		t.Fatalf("incomplete: %v", v[0])
	}
	st := run.Stabilization
	if st == nil || !st.Measured {
		t.Fatalf("no stabilization report: %+v", st)
	}
	if !st.Stabilized {
		t.Fatalf("did not stabilize: %s", st)
	}
	if st.Crashes != 2 || st.Corruptions != 1 {
		t.Fatalf("report counts wrong: %s", st)
	}

	// The stacked form absorbs channel faults and process faults at once.
	hs := repro.Harden(s, repro.HardenOptions{})
	shs := repro.StabilizeHardened(hs, repro.StabilizeOptions{})
	cplan := repro.NewFaultPlan(78, repro.MaxDelay(p.D),
		repro.Fault{From: 0, To: 400, Drop: 0.2, Corrupt: 0.2})
	run2, err := shs.Run(x, repro.RunOptions{Delay: cplan, ProcFaults: plan, MaxTicks: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	if v := shs.VerifySafety(run2, x); len(v) != 0 {
		t.Fatalf("stacked safety violated: %v", v[0])
	}
	if v := shs.VerifyComplete(run2, x); len(v) != 0 {
		t.Fatalf("stacked run incomplete: %v", v[0])
	}
	if run2.Stabilization == nil || !run2.Stabilization.Stabilized {
		t.Fatalf("stacked run did not stabilize: %s", run2.Stabilization)
	}
}

// TestPublicSchedulesAndDelays drives the exported schedule/adversary
// constructors through a run.
func TestPublicSchedulesAndDelays(t *testing.T) {
	p := repro.Params{C1: 2, C2: 4, D: 12}
	s, err := repro.Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := repro.RandomBits(8*s.BlockBits, rng.Uint64)
	schedules := []repro.StepPolicy{
		repro.FixedSchedule(p.C1),
		repro.AlternatingSchedule(p.C1, p.C2),
		repro.RandomSchedule(p.C1, p.C2, rng.Int63n),
	}
	delays := []repro.DelayPolicy{
		repro.ZeroDelay(),
		repro.MaxDelay(p.D),
		repro.RandomDelay(p.D, rng),
		repro.ReverseBurstDelay(p.D, 3, p.C1), // δ1 = 6; partial reversal is legal too
		repro.IntervalBatchDelay(p.D),
	}
	for _, sched := range schedules {
		for _, delay := range delays {
			run, err := s.Run(x, repro.RunOptions{TPolicy: sched, RPolicy: sched, Delay: delay})
			if err != nil {
				t.Fatalf("%s/%s: %v", sched.Name(), delay.Name(), err)
			}
			if repro.BitsToString(run.Writes()) != repro.BitsToString(x) {
				t.Fatalf("%s/%s: Y != X", sched.Name(), delay.Name())
			}
			if v := s.Verify(run, x); len(v) != 0 {
				t.Fatalf("%s/%s: %v", sched.Name(), delay.Name(), v[0])
			}
		}
	}
}

// TestRandomDelayNoAlloc: the facade's RandomDelay returns one arrival
// in [send, send+d] from a slice it owns, so a send allocates nothing.
func TestRandomDelayNoAlloc(t *testing.T) {
	const d = 12
	delay := repro.RandomDelay(d, rand.New(rand.NewSource(5)))
	var send int64
	allocs := testing.AllocsPerRun(100, func() {
		send += 7
		at := delay.Arrivals(send, send, wire.TtoR, wire.DataPacket(1))
		if len(at) != 1 || at[0] < send || at[0] > send+d {
			t.Fatalf("send %d: arrivals %v, want one in [%d, %d]", send, at, send, send+d)
		}
	})
	if allocs != 0 {
		t.Fatalf("RandomDelay allocates %.1f per packet, want 0", allocs)
	}
}
