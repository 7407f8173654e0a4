package chanmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ioa"
	"repro/internal/wire"
)

func TestSimplePoliciesDelays(t *testing.T) {
	pkt := wire.DataPacket(1)
	tests := []struct {
		name   string
		policy DelayPolicy
		send   int64
		want   int64
	}{
		{name: "zero", policy: Zero{}, send: 10, want: 10},
		{name: "max", policy: MaxDelay{D: 7}, send: 10, want: 17},
		{name: "fixed", policy: FixedDelay{Delay: 3}, send: 10, want: 13},
		{name: "exceed", policy: ExceedBound{D: 7, Excess: 2}, send: 10, want: 19},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.policy.Arrivals(0, tt.send, wire.TtoR, pkt)
			if len(got) != 1 || got[0] != tt.want {
				t.Errorf("%s.Arrivals = %v, want [%d]", tt.policy.Name(), got, tt.want)
			}
		})
	}
}

func TestUniformRandomWithinBound(t *testing.T) {
	u := &UniformRandom{D: 9, Rand: rand.New(rand.NewSource(1))}
	f := func(send uint16) bool {
		at := u.Arrivals(0, int64(send), wire.TtoR, wire.DataPacket(0))
		return len(at) == 1 && at[0] >= int64(send) && at[0] <= int64(send)+9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReverseBurstReversesArrivals(t *testing.T) {
	// Burst of 4, step gap 2, bound 12: sends at 0,2,4,6 must arrive in
	// reverse order, all within d of their send.
	p := ReverseBurst{D: 12, Burst: 4, StepGap: 2}
	var arrivals []int64
	for j := int64(0); j < 4; j++ {
		send := 2 * j
		at := p.Arrivals(j, send, wire.TtoR, wire.DataPacket(0))
		if len(at) != 1 {
			t.Fatalf("one arrival expected, got %v", at)
		}
		if at[0] < send || at[0] > send+12 {
			t.Fatalf("arrival %d for send %d outside Δ bound", at[0], send)
		}
		arrivals = append(arrivals, at[0])
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] >= arrivals[i-1] {
			t.Fatalf("arrivals not strictly reversed: %v", arrivals)
		}
	}
	// Acks go through untouched.
	if at := p.Arrivals(0, 5, wire.RtoT, wire.AckPacket()); at[0] != 5 {
		t.Errorf("r->t traffic delayed: %v", at)
	}
}

func TestReverseBurstClamp(t *testing.T) {
	// Bound too tight for full reversal: delays clamp to >= 0.
	p := ReverseBurst{D: 2, Burst: 4, StepGap: 2}
	for j := int64(0); j < 4; j++ {
		send := 2 * j
		at := p.Arrivals(j, send, wire.TtoR, wire.DataPacket(0))
		if at[0] < send || at[0] > send+2 {
			t.Fatalf("clamped arrival %d outside [send, send+d]", at[0])
		}
	}
}

func TestIntervalBatch(t *testing.T) {
	b := IntervalBatch{D: 5} // period 4
	if b.Period() != 4 {
		t.Fatalf("period = %d", b.Period())
	}
	tests := []struct {
		send, want int64
	}{
		{send: 0, want: 4},
		{send: 3, want: 4},
		{send: 4, want: 8},
		{send: 7, want: 8},
		{send: 8, want: 12},
	}
	for _, tt := range tests {
		at := b.Arrivals(0, tt.send, wire.TtoR, wire.DataPacket(0))
		if len(at) != 1 || at[0] != tt.want {
			t.Errorf("send %d -> %v, want %d", tt.send, at, tt.want)
		}
		if lag := at[0] - tt.send; lag < 1 || lag > 5 {
			t.Errorf("send %d: delay %d outside (0, d]", tt.send, lag)
		}
	}
}

func TestIntervalBatchDegenerate(t *testing.T) {
	b := IntervalBatch{D: 1} // period 0: degenerate, instant delivery
	if at := b.Arrivals(0, 3, wire.TtoR, wire.DataPacket(0)); at[0] != 3 {
		t.Errorf("degenerate batch: %v", at)
	}
}

func TestLossyDupStatistics(t *testing.T) {
	l := &LossyDup{D: 4, LossProb: 0.5, DupProb: 0.5, Rand: rand.New(rand.NewSource(5))}
	lost, dupd, single := 0, 0, 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		at := l.Arrivals(int64(i), 100, wire.TtoR, wire.DataPacket(0))
		switch len(at) {
		case 0:
			lost++
		case 1:
			single++
		case 2:
			dupd++
		default:
			t.Fatalf("unexpected arrivals %v", at)
		}
		for _, a := range at {
			if a < 100 || a > 104 {
				t.Fatalf("arrival %d outside bound", a)
			}
		}
	}
	if lost < trials/3 || lost > 2*trials/3 {
		t.Errorf("loss count %d implausible for p=0.5", lost)
	}
	if dupd == 0 || single == 0 {
		t.Errorf("expected both duplicates (%d) and singles (%d)", dupd, single)
	}
}

func TestFIFOLossyDupMonotone(t *testing.T) {
	l := &FIFOLossyDup{D: 9, LossProb: 0.3, DupProb: 0.3, Rand: rand.New(rand.NewSource(8))}
	last := map[wire.Dir]int64{}
	for i := int64(0); i < 500; i++ {
		dir := wire.TtoR
		if i%3 == 0 {
			dir = wire.RtoT
		}
		at := l.Arrivals(i, i, dir, wire.DataPacket(0))
		if len(at) == 0 {
			continue
		}
		if at[0] < last[dir] {
			t.Fatalf("direction %v reordered: %d after %d", dir, at[0], last[dir])
		}
		if len(at) == 2 && at[1] != at[0] {
			t.Fatalf("duplicate not back to back: %v", at)
		}
		last[dir] = at[0]
	}
}

func TestJitterWithinBound(t *testing.T) {
	j := &Jitter{D: 10, Base: 5, Amp: 7, Rand: rand.New(rand.NewSource(2))}
	for i := int64(0); i < 500; i++ {
		at := j.Arrivals(i, 100, wire.TtoR, wire.DataPacket(0))
		if len(at) != 1 || at[0] < 100 || at[0] > 110 {
			t.Fatalf("jitter arrival %v outside [100,110]", at)
		}
	}
	// Zero amplitude: deterministic base.
	j0 := &Jitter{D: 10, Base: 4, Rand: rand.New(rand.NewSource(2))}
	if at := j0.Arrivals(0, 100, wire.TtoR, wire.DataPacket(0)); at[0] != 104 {
		t.Errorf("zero-amp jitter = %v, want 104", at)
	}
}

func TestBurstyPhases(t *testing.T) {
	b := Bursty{D: 10, Lo: 1, Hi: 8, Period: 4}
	tests := []struct {
		send, want int64
	}{
		{send: 0, want: 1},  // phase 0: lo
		{send: 3, want: 4},  // still phase 0
		{send: 4, want: 12}, // phase 1: hi
		{send: 7, want: 15},
		{send: 8, want: 9}, // back to lo
	}
	for _, tt := range tests {
		at := b.Arrivals(0, tt.send, wire.TtoR, wire.DataPacket(0))
		if at[0] != tt.want {
			t.Errorf("send %d -> %v, want %d", tt.send, at, tt.want)
		}
	}
	// Hi above the bound is clamped.
	clamped := Bursty{D: 5, Lo: 1, Hi: 99, Period: 2}
	if at := clamped.Arrivals(0, 2, wire.TtoR, wire.DataPacket(0)); at[0] != 7 {
		t.Errorf("clamp: %v, want 7", at)
	}
}

func TestFuncPolicy(t *testing.T) {
	p := Func{Label: "x", F: func(dirSeq, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
		return []int64{sendTime + dirSeq}
	}}
	if p.Name() != "x" {
		t.Error("name")
	}
	if at := p.Arrivals(3, 10, wire.TtoR, wire.DataPacket(0)); at[0] != 13 {
		t.Errorf("Arrivals = %v", at)
	}
}

func TestPolicyNamesNonEmpty(t *testing.T) {
	policies := []DelayPolicy{
		Zero{}, MaxDelay{D: 1}, FixedDelay{Delay: 1},
		&UniformRandom{D: 1, Rand: rand.New(rand.NewSource(1))},
		ReverseBurst{D: 1, Burst: 1, StepGap: 1}, IntervalBatch{D: 2},
		&LossyDup{D: 1, Rand: rand.New(rand.NewSource(1))},
		&FIFOLossyDup{D: 1, Rand: rand.New(rand.NewSource(1))},
		ExceedBound{D: 1, Excess: 1},
		&Jitter{D: 1, Rand: rand.New(rand.NewSource(1))},
		Bursty{D: 1, Period: 1},
		&UniformWindow{D1: 0, D2: 1, Rand: rand.New(rand.NewSource(1))},
	}
	for _, p := range policies {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

// TestUntimedChannelAutomaton exercises the ioa-level channel: sends
// enqueue, recvs must match in-flight packets, NextLocal is FIFO.
func TestUntimedChannelAutomaton(t *testing.T) {
	c := NewChannel("chan")
	if c.Name() != "chan" {
		t.Error("name")
	}
	s1 := wire.Send{Dir: wire.TtoR, P: wire.DataPacket(1)}
	s2 := wire.Send{Dir: wire.TtoR, P: wire.DataPacket(2)}
	if c.Classify(s1) != ioa.ClassInput {
		t.Error("send should be channel input")
	}
	if c.Classify(wire.Recv{Dir: wire.TtoR, P: wire.DataPacket(1)}) != ioa.ClassOutput {
		t.Error("recv should be channel output")
	}
	if c.Classify(wire.Write{M: 0}) != ioa.ClassNone {
		t.Error("write is outside the channel signature")
	}
	if _, ok := c.NextLocal(); ok {
		t.Error("empty channel should be quiescent")
	}
	if err := c.Apply(s1); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(s2); err != nil {
		t.Fatal(err)
	}
	if c.InFlight() != 2 {
		t.Fatalf("in flight = %d", c.InFlight())
	}
	// FIFO proposal.
	act, ok := c.NextLocal()
	if !ok || act.(wire.Recv).P.Symbol != 1 {
		t.Fatalf("NextLocal = %v", act)
	}
	// But any in-flight packet may be delivered (reordering allowed).
	if err := c.Apply(wire.Recv{Dir: wire.TtoR, P: wire.DataPacket(2)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(wire.Recv{Dir: wire.TtoR, P: wire.DataPacket(1)}); err != nil {
		t.Fatal(err)
	}
	// Nothing left: delivering again is not enabled.
	if err := c.Apply(wire.Recv{Dir: wire.TtoR, P: wire.DataPacket(1)}); err == nil {
		t.Error("recv without matching in-flight packet should fail")
	}
	// Unknown actions are rejected.
	if err := c.Apply(wire.Write{M: 1}); err == nil {
		t.Error("write should be rejected")
	}
}

// TestUniformRandomArrivalsNoAlloc is UniformRandom's allocation guard:
// Arrivals returns a one-element slice the policy owns, so it allocates
// nothing. The seeded delays, each read before the next call reuses the
// slice, are pinned to the ones the policy drew when it returned a fresh
// slice per packet, so the reuse changes no draw.
func TestUniformRandomArrivalsNoAlloc(t *testing.T) {
	u := &UniformRandom{D: 12, Rand: rand.New(rand.NewSource(7))}
	want := []int64{6, 0, 1, 12, 7, 4, 12, 5, 11, 1, 8, 4, 0, 0, 12, 12, 0, 12, 5, 7, 9, 7, 0, 2, 9, 11, 8, 8, 5, 10, 8, 5}
	for i, w := range want {
		send := int64(100 * i)
		at := u.Arrivals(int64(i), send, wire.TtoR, wire.DataPacket(0))
		if len(at) != 1 || at[0]-send != w {
			t.Fatalf("packet %d: arrivals %v after send %d, want one at +%d", i, at, send, w)
		}
	}
	var sum int64
	allocs := testing.AllocsPerRun(999, func() {
		sum += u.Arrivals(0, 0, wire.TtoR, wire.DataPacket(0))[0]
	})
	if allocs != 0 {
		t.Fatalf("Arrivals allocates %.1f per packet, want 0", allocs)
	}
	// What the fresh-slice policy drew over the next 1000 packets.
	if sum != 5986 {
		t.Fatalf("next 1000 delays sum to %d, want 5986", sum)
	}
}
