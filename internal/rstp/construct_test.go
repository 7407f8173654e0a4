package rstp_test

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/rateless"
	"repro/internal/rstp"
	"repro/internal/wire"
)

// pairBuilder is the half of session.PairBuilder these tests use.
type pairBuilder interface {
	NewPair(x []wire.Bit) (t, r ioa.Automaton, err error)
}

// pairCase is one stack whose NewPair cost is pinned: allocs for a pair
// over a bits-long input and for NewPair(nil), the server's
// receiver-only build.
type pairCase struct {
	name       string
	bits       int // 48, a churn session's, rounded up to the block size
	build      func(testing.TB) pairBuilder
	withX, noX float64
}

var constructParams = rstp.Params{C1: 2, C2: 3, D: 12}

func mustSolution(tb testing.TB, proto string, k int) rstp.Solution {
	sol, err := rstp.New(constructParams, proto, k)
	if err != nil {
		tb.Fatal(err)
	}
	return sol
}

// pairCases lists the stacks with their construction budgets. A pair is
// two automata, each a struct plus the slices it owns: α's copy of X,
// β's and γ's encoded symbols and their receiver's multiset counts. The
// hardened layer adds one end per side; rateless adds its per-block codes
// and repair cursors and the receiver's decoder map. An empty input owns
// no slice.
var pairCases = []pairCase{
	{"alpha", 48, func(tb testing.TB) pairBuilder { return mustSolution(tb, "alpha", 2) }, 3, 2},
	{"beta4", 48, func(tb testing.TB) pairBuilder { return mustSolution(tb, "beta", 4) }, 4, 3},
	{"gamma4", 50, func(tb testing.TB) pairBuilder { return mustSolution(tb, "gamma", 4) }, 4, 3},
	{"hardened-beta4", 48, func(tb testing.TB) pairBuilder {
		return rstp.Harden(mustSolution(tb, "beta", 4), rstp.HardenOptions{})
	}, 6, 5},
	{"rateless4", 48, func(tb testing.TB) pairBuilder {
		b, err := rateless.NewBuilder(rateless.Options{Params: constructParams, K: 4, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}, 7, 4},
}

// input returns an n-bit input.
func input(n int) []wire.Bit {
	x := make([]wire.Bit, n)
	for i := range x {
		x[i] = wire.Bit(i * 7 % 3 % 2)
	}
	return x
}

func pairAllocs(tb testing.TB, pb pairBuilder, x []wire.Bit) float64 {
	return testing.AllocsPerRun(200, func() {
		if _, _, err := pb.NewPair(x); err != nil {
			tb.Fatal(err)
		}
	})
}

// TestNewPairConstructAllocs pins what building one session's protocol
// pair costs. Each side of the serving mux builds a whole pair and keeps
// one half (session.PairBuilder), so the receiver-only NewPair(nil) is
// paid once per session too.
func TestNewPairConstructAllocs(t *testing.T) {
	for _, c := range pairCases {
		pb, x := c.build(t), input(c.bits)
		if got := pairAllocs(t, pb, x); got > c.withX {
			t.Errorf("%s: NewPair(x) = %v allocs, budget %v", c.name, got, c.withX)
		}
		if got := pairAllocs(t, pb, nil); got > c.noX {
			t.Errorf("%s: NewPair(nil) = %v allocs, budget %v", c.name, got, c.noX)
		}
	}
}

// pairSinkT and pairSinkR keep BenchmarkNewPair's pairs reachable.
var pairSinkT, pairSinkR ioa.Automaton

// BenchmarkNewPair times one pair's construction for each stack the
// serving layer builds per session.
func BenchmarkNewPair(b *testing.B) {
	for _, c := range pairCases {
		b.Run(c.name, func(b *testing.B) {
			pb, x := c.build(b), input(c.bits)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if pairSinkT, pairSinkR, err = pb.NewPair(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forkSink keeps each fork reachable, so the count includes the copy
// itself and not only what escape analysis cannot keep on the stack.
var forkSink any

// forkAllocs counts the allocations of one call of fork.
func forkAllocs(tb testing.TB, fork func() (any, error)) float64 {
	return testing.AllocsPerRun(200, func() {
		var err error
		if forkSink, err = fork(); err != nil {
			tb.Fatal(err)
		}
	})
}

// TestForkConstructAllocs pins each Fork at a struct copy plus the
// mutable slices the automaton owns: a receiver's multiset counts and
// decoded queue, α's received bits. Immutable state (the encoded
// symbols, the codec, the pre-boxed sends) is shared.
func TestForkConstructAllocs(t *testing.T) {
	p := constructParams
	x := input(60)
	at, err := rstp.NewAlphaTransmitter(p, x)
	if err != nil {
		t.Fatal(err)
	}
	ar, _ := rstp.NewAlphaReceiver(p)
	bt, err := rstp.NewBetaTransmitter(p, 4, x[:48])
	if err != nil {
		t.Fatal(err)
	}
	br, _ := rstp.NewBetaReceiver(p, 4)
	gt, err := rstp.NewGammaTransmitter(p, 4, x[:50])
	if err != nil {
		t.Fatal(err)
	}
	gr, _ := rstp.NewGammaReceiver(p, 4)
	// Give each receiver a decoded queue: a whole burst of each.
	deliver(t, ar, at, 1)
	deliver(t, br, bt, bt.Burst())
	deliver(t, gr, gt, gt.Burst())
	cases := []struct {
		name   string
		fork   func() (any, error)
		budget float64
	}{
		{"alpha/t", func() (any, error) { return at.Fork() }, 1},
		{"alpha/r", func() (any, error) { return ar.Fork() }, 2},
		{"beta4/t", func() (any, error) { return bt.Fork() }, 1},
		{"beta4/r", func() (any, error) { return br.Fork() }, 3},
		{"gamma4/t", func() (any, error) { return gt.Fork() }, 1},
		{"gamma4/r", func() (any, error) { return gr.Fork() }, 3},
	}
	for _, c := range cases {
		if got := forkAllocs(t, c.fork); got > c.budget {
			t.Errorf("%s: Fork = %v allocs, budget %v", c.name, got, c.budget)
		}
	}
}

// deliver steps t until it has sent n data packets, delivering each to r.
func deliver(tb testing.TB, r, t ioa.Automaton, n int) {
	for sent := 0; sent < n; {
		act, ok := t.NextLocal()
		if !ok {
			tb.Fatalf("%s: no local action after %d sends", t.Name(), sent)
		}
		if err := t.Apply(act); err != nil {
			tb.Fatal(err)
		}
		if s, ok := act.(wire.Send); ok {
			if err := r.Apply(rstp.RecvAction(s.Dir, s.P, s.Payload)); err != nil {
				tb.Fatal(err)
			}
			sent++
		}
	}
}
