package rstp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/wire"
)

func chaosParams() Params { return Params{C1: 2, C2: 3, D: 12} }

func chaosSolutions(t *testing.T) []Solution {
	t.Helper()
	p := chaosParams()
	a, err := Alpha(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Gamma(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Solution{a, b, g}
}

// chaosInput builds a non-trivial input of n whole blocks.
func chaosInput(s Solution, blocks int) []wire.Bit {
	x := make([]wire.Bit, s.BlockBits*blocks)
	for i := range x {
		if i%3 == 0 || i%7 == 2 {
			x[i] = wire.One
		}
	}
	return x
}

func TestHardenedCodecRoundTrip(t *testing.T) {
	for seq := int64(0); seq < 100; seq++ {
		inner := wire.DataPacket(wire.Symbol(seq % 4))
		w := hardWrap(seq, inner, wire.TtoR)
		val, ctrl, ok := hardDecode(w, wire.TtoR)
		if !ok || ctrl || val != seq {
			t.Fatalf("payload roundtrip seq=%d: val=%d ctrl=%v ok=%v", seq, val, ctrl, ok)
		}
		a := hardAckPacket(seq, wire.RtoT)
		val, ctrl, ok = hardDecode(a, wire.RtoT)
		if !ok || !ctrl || val != seq {
			t.Fatalf("ack roundtrip cum=%d: val=%d ctrl=%v ok=%v", seq, val, ctrl, ok)
		}
	}
}

// TestHardenedCodecDetectsCorruption: every symbol offset the fault
// injector can apply (nonzero mod 16) must flip the checksum.
func TestHardenedCodecDetectsCorruption(t *testing.T) {
	for seq := int64(0); seq < 32; seq++ {
		w := hardWrap(seq, wire.DataPacket(wire.Symbol(seq%4)), wire.TtoR)
		for delta := wire.Symbol(1); delta < 16; delta++ {
			bad := w
			bad.Symbol += delta
			if _, _, ok := hardDecode(bad, wire.TtoR); ok {
				t.Fatalf("seq=%d delta=%d: corruption passed the checksum", seq, delta)
			}
		}
		a := hardAckPacket(seq, wire.RtoT)
		bad := a
		bad.Symbol += 7
		if _, _, ok := hardDecode(bad, wire.RtoT); ok {
			t.Fatalf("cum=%d: corrupted ack passed the checksum", seq)
		}
	}
}

// TestHardenedFaultFree: on a healthy channel the hardened solutions are
// held to the full good(A) + Y = X standard, like their inner protocols.
func TestHardenedFaultFree(t *testing.T) {
	for _, s := range chaosSolutions(t) {
		hs := Harden(s, HardenOptions{})
		t.Run(hs.String(), func(t *testing.T) {
			x := chaosInput(s, 6)
			run, err := hs.Run(x, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if v := hs.Verify(run, x); len(v) > 0 {
				t.Fatalf("fault-free hardened run not good: %v (and %d more)", v[0], len(v)-1)
			}
			if run.Degradation == nil || !run.Degradation.ModelHolds() {
				t.Fatalf("healthy channel flagged: %v", run.Degradation)
			}
		})
	}
}

// chaosPlan names one fault plan of the matrix. Each plan's windows all
// close, so the hardened runs must not only stay safe but finish.
type chaosPlan struct {
	name    string
	mk      func() *faults.Plan
	certain bool // the plan violates the model on every affected packet
}

func chaosPlans(p Params) []chaosPlan {
	inner := func() chanmodel.DelayPolicy { return chanmodel.MaxDelay{D: p.D} }
	return []chaosPlan{
		{"loss", func() *faults.Plan {
			return faults.NewPlan(11, inner(), faults.Fault{From: 0, To: 600, Drop: 0.3})
		}, false},
		{"dup", func() *faults.Plan {
			return faults.NewPlan(12, inner(), faults.Fault{From: 0, To: 600, Dup: 0.4})
		}, false},
		{"corrupt", func() *faults.Plan {
			return faults.NewPlan(13, inner(), faults.Fault{From: 0, To: 600, Corrupt: 0.3})
		}, false},
		{"blackout", func() *faults.Plan {
			return faults.NewPlan(14, inner(), faults.Fault{From: 60, To: 240, Blackout: true})
		}, true},
		{"late", func() *faults.Plan {
			return faults.NewPlan(15, inner(), faults.Fault{From: 0, To: 400, ExtraDelay: 3 * p.D})
		}, true},
		{"combo", func() *faults.Plan {
			return faults.NewPlan(16, inner(),
				faults.Fault{From: 0, To: 300, Drop: 0.25, Dup: 0.25, Corrupt: 0.25},
				faults.Fault{From: 300, To: 450, Blackout: true},
				faults.Fault{From: 450, To: 600, ExtraDelay: 2 * p.D},
			)
		}, true},
	}
}

// TestHardenedChaosMatrix is the acceptance matrix: every protocol under
// every healing fault plan reports zero prefix violations and, because
// all windows close, completes with Y = X.
func TestHardenedChaosMatrix(t *testing.T) {
	for _, s := range chaosSolutions(t) {
		for _, cp := range chaosPlans(chaosParams()) {
			hs := Harden(s, HardenOptions{})
			t.Run(hs.String()+"/"+cp.name, func(t *testing.T) {
				x := chaosInput(s, 6)
				plan := cp.mk()
				run, err := hs.Run(x, RunOptions{Delay: plan, MaxTicks: 500_000})
				if err != nil {
					t.Fatalf("hardened run failed to complete: %v", err)
				}
				if v := hs.VerifySafety(run, x); len(v) > 0 {
					t.Fatalf("SAFETY violated under %s: %v", plan.Name(), v[0])
				}
				if v := hs.VerifyComplete(run, x); len(v) > 0 {
					t.Fatalf("liveness after heal failed under %s: %v", plan.Name(), v[0])
				}
				if cp.certain && run.Degradation.ModelHolds() {
					t.Fatalf("plan %s injected nothing the watchdog saw", plan.Name())
				}
			})
		}
	}
}

// TestHardenedSafetyUnderUnhealedPlan: a blackout that outlives the run
// forfeits liveness (the run hits its cap) but never safety — the output
// tape holds a correct, possibly empty, prefix of X.
func TestHardenedSafetyUnderUnhealedPlan(t *testing.T) {
	p := chaosParams()
	s, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	hs := Harden(s, HardenOptions{})
	x := chaosInput(s, 6)
	plan := faults.NewPlan(21, chanmodel.MaxDelay{D: p.D},
		faults.Fault{From: 30, To: 1 << 40, Blackout: true})
	run, err := hs.Run(x, RunOptions{Delay: plan, MaxTicks: 20_000})
	if !errors.Is(err, sim.ErrNoProgress) {
		t.Fatalf("run under a permanent blackout ended with %v, want ErrNoProgress", err)
	}
	if v := hs.VerifySafety(run, x); len(v) > 0 {
		t.Fatalf("safety violated: %v", v[0])
	}
	if got := len(run.Writes()); got >= len(x) {
		t.Fatalf("run wrote all %d bits through a permanent blackout", got)
	}
	if run.Degradation == nil || run.Degradation.Lost == 0 {
		t.Fatalf("watchdog missed the blackout: %v", run.Degradation)
	}
}

// TestHardenedRecoversThroughput: after the last fault window closes the
// layer drains its backlog and finishes; the final write lands after the
// heal, and a healthy tail of the same length as the faulty head costs
// bounded extra time (the backoff cap guarantees a probe soon after the
// heal).
func TestHardenedRecoversThroughput(t *testing.T) {
	p := chaosParams()
	s, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	hs := Harden(s, HardenOptions{})
	x := chaosInput(s, 8)
	plan := faults.NewPlan(31, chanmodel.MaxDelay{D: p.D},
		faults.Fault{From: 0, To: 500, Blackout: true})
	run, err := hs.Run(x, RunOptions{Delay: plan, MaxTicks: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	if v := hs.VerifyComplete(run, x); len(v) > 0 {
		t.Fatalf("did not recover: %v", v[0])
	}
	last, ok := run.LastWriteTime()
	if !ok || last < plan.End() {
		t.Fatalf("last write at %d, before the heal at %d?", last, plan.End())
	}
	// Recovery bound: base RTO ≤ 16× backoff, plus drain of the whole
	// input at the slowest schedule. Generous but finite.
	budget := plan.End() + roundTripSteps(p)*(1<<hardBackoffCap)*p.C2 + 40*int64(len(x))*p.C2
	if last > budget {
		t.Fatalf("recovery too slow: last write %d, budget %d", last, budget)
	}
}

func TestHardenedString(t *testing.T) {
	p := chaosParams()
	s, _ := Beta(p, 4)
	hs := Harden(s, HardenOptions{})
	if got := hs.String(); !strings.Contains(got, "hardened(") || !strings.Contains(got, "beta") {
		t.Fatalf("String() = %q", got)
	}
	// At c1=2, c2=3, d=12 (δ1 = 6): window 4δ1+4 = 28, RTO
	// ⌈(6·3+12)/2⌉+2 = 17 steps, backoff cap 4.
	tx, _, err := hs.NewPair(chaosInput(s, 1))
	if err != nil {
		t.Fatal(err)
	}
	if h := tx.(*hardEnd); h.window != 28 || h.rtoBase != 17 || hardBackoffCap != 4 {
		t.Fatalf("window %d, RTO %d steps, backoff cap %d; want 28, 17, 4", h.window, h.rtoBase, hardBackoffCap)
	}
}
