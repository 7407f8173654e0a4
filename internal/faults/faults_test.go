package faults

import (
	"testing"

	"repro/internal/chanmodel"
	"repro/internal/wire"
)

// replay feeds n packets through a plan and returns every arrival.
func replay(p *Plan, n int64) [][]chanmodel.Arrival {
	out := make([][]chanmodel.Arrival, n)
	for i := int64(0); i < n; i++ {
		out[i] = p.ArrivalsMut(i, i*2, wire.TtoR, wire.DataPacket(wire.Symbol(i%4)))
	}
	return out
}

func TestPlanDeterministic(t *testing.T) {
	mk := func() *Plan {
		return NewPlan(42, chanmodel.Zero{},
			Fault{From: 10, To: 60, Drop: 0.3, Dup: 0.3, Corrupt: 0.3})
	}
	a, b := replay(mk(), 100), replay(mk(), 100)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("packet %d: %d vs %d arrivals", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("packet %d arrival %d: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestPlanWindowGating(t *testing.T) {
	p := NewPlan(1, chanmodel.Zero{}, Fault{From: 10, To: 20, Blackout: true})
	pkt := wire.DataPacket(3)
	for _, tc := range []struct {
		sendTime int64
		want     int // arrivals
	}{
		{9, 1},  // before window
		{10, 0}, // window open (inclusive)
		{19, 0}, // last tick inside
		{20, 1}, // window closed (exclusive)
		{100, 1},
	} {
		got := p.ArrivalsMut(0, tc.sendTime, wire.TtoR, pkt)
		if len(got) != tc.want {
			t.Fatalf("sendTime %d: %d arrivals, want %d", tc.sendTime, len(got), tc.want)
		}
	}
	if p.End() != 20 {
		t.Fatalf("End() = %d, want 20", p.End())
	}
}

func TestPlanDirectionGating(t *testing.T) {
	p := NewPlan(1, chanmodel.Zero{}, Fault{From: 0, To: 100, Dir: wire.TtoR, Blackout: true})
	pkt := wire.DataPacket(0)
	if got := p.ArrivalsMut(0, 5, wire.TtoR, pkt); len(got) != 0 {
		t.Fatalf("TtoR packet survived a TtoR blackout: %v", got)
	}
	if got := p.ArrivalsMut(0, 5, wire.RtoT, pkt); len(got) != 1 {
		t.Fatalf("RtoT packet hit a TtoR-only blackout: %v", got)
	}
}

func TestPlanDropAndDup(t *testing.T) {
	p := NewPlan(7, chanmodel.Zero{}, Fault{From: 0, To: 1000, Drop: 0.5, Dup: 0.5})
	var dropped, dupped, clean int
	for i := int64(0); i < 500; i++ {
		switch got := p.ArrivalsMut(i, i, wire.TtoR, wire.DataPacket(0)); len(got) {
		case 0:
			dropped++
		case 1:
			clean++
		case 2:
			dupped++
			if got[0].P != got[1].P || got[0].At != got[1].At {
				t.Fatalf("duplicate differs from original: %+v", got)
			}
		default:
			t.Fatalf("packet %d: %d arrivals", i, len(got))
		}
	}
	// Rough sanity: with p=0.5 each over 500 packets, all three outcomes occur.
	if dropped == 0 || dupped == 0 || clean == 0 {
		t.Fatalf("dropped=%d dupped=%d clean=%d — fault draws not firing", dropped, dupped, clean)
	}
	affected, d, du, _, _ := p.Stats()
	if affected != 500 || d != dropped || du != dupped {
		t.Fatalf("stats affected=%d dropped=%d dupped=%d, counted %d/%d", affected, d, du, dropped, dupped)
	}
}

func TestPlanCorruptChangesSymbolDetectably(t *testing.T) {
	p := NewPlan(3, chanmodel.Zero{}, Fault{From: 0, To: 1000, Corrupt: 1})
	var corrupted int
	for i := int64(0); i < 64; i++ {
		orig := wire.DataPacket(wire.Symbol(i))
		for _, a := range p.ArrivalsMut(i, i, wire.TtoR, orig) {
			if a.P.Symbol == orig.Symbol {
				t.Fatalf("packet %d: corrupt=1 left symbol unchanged", i)
			}
			// Offset must be nonzero mod 16 so a 16-bucket checksum sees it.
			if (a.P.Symbol-orig.Symbol)%16 == 0 {
				t.Fatalf("packet %d: offset %d is 0 mod 16", i, a.P.Symbol-orig.Symbol)
			}
			if a.P.Kind != orig.Kind || a.P.Tag != orig.Tag {
				t.Fatalf("corruption touched non-payload fields: %+v", a.P)
			}
			corrupted++
		}
	}
	if corrupted != 64 {
		t.Fatalf("corrupted %d of 64", corrupted)
	}
}

func TestPlanExtraDelay(t *testing.T) {
	inner := chanmodel.MaxDelay{D: 4}
	p := NewPlan(1, inner, Fault{From: 0, To: 50, ExtraDelay: 100})
	base := inner.Arrivals(0, 10, wire.TtoR, wire.DataPacket(0))
	got := p.ArrivalsMut(0, 10, wire.TtoR, wire.DataPacket(0))
	if len(got) != len(base) {
		t.Fatalf("arrival count changed: %d vs %d", len(got), len(base))
	}
	for i := range got {
		if got[i].At != base[i]+100 {
			t.Fatalf("arrival %d at %d, want %d", i, got[i].At, base[i]+100)
		}
	}
}

func TestPlanComposesClauses(t *testing.T) {
	// Two clauses over overlapping windows: a delay on all traffic plus a
	// blackout on the later half. Both must apply where both are active.
	p := NewPlan(1, chanmodel.Zero{},
		Fault{From: 0, To: 100, ExtraDelay: 5},
		Fault{From: 50, To: 100, Blackout: true},
	)
	if got := p.ArrivalsMut(0, 10, wire.TtoR, wire.DataPacket(0)); len(got) != 1 || got[0].At != 15 {
		t.Fatalf("delay-only region: %+v", got)
	}
	if got := p.ArrivalsMut(1, 60, wire.TtoR, wire.DataPacket(0)); len(got) != 0 {
		t.Fatalf("blackout region delivered: %+v", got)
	}
	if p.End() != 100 {
		t.Fatalf("End() = %d", p.End())
	}
}

func TestPlanArrivalsMatchesMut(t *testing.T) {
	// The times-only DelayPolicy view must agree with the Mutator view for
	// identically-seeded plans.
	mk := func() *Plan {
		return NewPlan(9, chanmodel.Zero{}, Fault{From: 0, To: 500, Drop: 0.4, Dup: 0.4, ExtraDelay: 3})
	}
	a, b := mk(), mk()
	for i := int64(0); i < 200; i++ {
		times := a.Arrivals(i, i, wire.TtoR, wire.DataPacket(0))
		arr := b.ArrivalsMut(i, i, wire.TtoR, wire.DataPacket(0))
		if len(times) != len(arr) {
			t.Fatalf("packet %d: %d vs %d arrivals", i, len(times), len(arr))
		}
		for j := range times {
			if times[j] != arr[j].At {
				t.Fatalf("packet %d arrival %d: %d vs %d", i, j, times[j], arr[j].At)
			}
		}
	}
}

func TestPlanName(t *testing.T) {
	p := NewPlan(5, chanmodel.Zero{}, Fault{From: 1, To: 2, Drop: 0.25})
	name := p.Name()
	for _, want := range []string{"seed=5", "[1,2)", "drop=0.25", chanmodel.Zero{}.Name()} {
		if !contains(name, want) {
			t.Fatalf("Name() = %q missing %q", name, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// fixedDelay delivers every packet three ticks after its send, returning
// a reused slice so that only the plan's own allocations are counted.
type fixedDelay struct{ out [1]int64 }

func (*fixedDelay) Name() string { return "fixed" }
func (f *fixedDelay) Arrivals(_, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	f.out[0] = sendTime + 3
	return f.out[:]
}

// outcome renders one packet's fate: 'x' dropped, '.' delivered once,
// ':' delivered twice, and a corrupted delivery as the symbol offset in
// 'a'..'o' (once) or 'A'..'O' (twice).
func outcome(orig wire.Packet, arr []chanmodel.Arrival) byte {
	switch {
	case len(arr) == 0:
		return 'x'
	case arr[0].P.Symbol != orig.Symbol:
		base := byte('a')
		if len(arr) == 2 {
			base = 'A'
		}
		return base + byte(arr[0].P.Symbol-orig.Symbol) - 1
	case len(arr) == 2:
		return ':'
	default:
		return '.'
	}
}

// TestPlanArrivalsNoAlloc is the fault plan's allocation guard: once its
// scratch slice has held a duplicate, ArrivalsMut allocates nothing. The
// seeded drop/dup/corrupt sequence, read packet by packet before the
// next call reuses the slice, is pinned to the one the plan drew when it
// returned a fresh slice per packet, so the reuse changes no draw.
func TestPlanArrivalsNoAlloc(t *testing.T) {
	mk := func() *Plan {
		return NewPlan(11, &fixedDelay{}, Fault{From: 0, To: 1 << 40, Drop: 0.2, Dup: 0.2, Corrupt: 0.2})
	}
	seq := func(p *Plan, n int64) string {
		out := make([]byte, n)
		for i := int64(0); i < n; i++ {
			pkt := wire.DataPacket(wire.Symbol(i % 4))
			arr := p.ArrivalsMut(i, i, wire.TtoR, pkt)
			for _, a := range arr {
				if a.At != i+3 || a.P != arr[0].P {
					t.Fatalf("packet %d: arrivals %+v", i, arr)
				}
			}
			out[i] = outcome(pkt, arr)
		}
		return string(out)
	}
	const want = "x.:.x.:...x....xxxxmkx..:.xfx.d..x.:::..:in:.xex..:..:x.:.x.x..x"
	p := mk()
	got := seq(p, 64)
	if again := seq(mk(), 64); again != got {
		t.Fatalf("same seed, different faults:\n%s\n%s", got, again)
	}
	if got != want {
		t.Fatalf("seeded fault sequence\n got %s\nwant %s", got, want)
	}
	i := int64(64)
	allocs := testing.AllocsPerRun(1000, func() {
		p.ArrivalsMut(i, i, wire.TtoR, wire.DataPacket(0))
		i++
	})
	if allocs != 0 {
		t.Fatalf("ArrivalsMut allocates %.1f per packet, want 0", allocs)
	}
	// What the fresh-slice plan drew over the same 1065 packets.
	if a, dr, du, co, _ := p.Stats(); a != int(i) || dr != 211 || du != 167 || co != 173 {
		t.Fatalf("after %d packets: affected=%d dropped=%d duplicated=%d corrupted=%d, want %[1]d 211 167 173", i, a, dr, du, co)
	}
}
