package rstp

import (
	"math/rand"
	"testing"

	"repro/internal/ioa"
	"repro/internal/multiset"
	"repro/internal/wire"
)

// stepKind takes a's next local step, which must be of the given kind.
func stepKind(t testing.TB, a ioa.Automaton, kind string) {
	act, ok := a.NextLocal()
	if !ok || act.Kind() != kind {
		t.Fatalf("%s: next local action %v (ok %v), want %s", a.Name(), act, ok, kind)
	}
	if err := a.Apply(act); err != nil {
		t.Fatalf("%s: apply %v: %v", a.Name(), act, err)
	}
}

// apply delivers an already-boxed input action.
func apply(t testing.TB, a ioa.Automaton, act ioa.Action) {
	if err := a.Apply(act); err != nil {
		t.Fatalf("%s: apply %v: %v", a.Name(), act, err)
	}
}

// boxedRecvs returns the k data receipts recv[TtoR](s), boxed once, as
// the serving endpoint boxes each delivered frame once.
func boxedRecvs(k int) []ioa.Action {
	out := make([]ioa.Action, k)
	for s := range out {
		out[s] = wire.Recv{Dir: wire.TtoR, P: wire.DataPacket(wire.Symbol(s))}
	}
	return out
}

func seededBits(n int) []wire.Bit {
	return wire.RandomBits(n, rand.New(rand.NewSource(1)).Uint64)
}

// burstOf returns a codeword burst of codec's, in a scrambled order (the
// receiver decodes the multiset, not the sequence).
func burstOf(t testing.TB, codec *multiset.Codec) []wire.Symbol {
	seq, err := codec.EncodeSeq(seededBits(codec.BlockBits()))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq
}

// TestCoreStepNoAlloc pins the steady-state core step at zero
// allocations for α, β(4) and γ(4) at Params{2,3,12}: one transmitter
// round (its sends and its wait/idle steps, plus γ's acks), and one
// receiver round (a full burst of already-boxed receipts through
// Apply, including the decode, then its writes and an idle step). The
// receivers' output queue is the paper's unbounded array y; its
// capacity is reserved up front so that the measurement sees the step,
// not the queue's amortised growth.
func TestCoreStepNoAlloc(t *testing.T) {
	p := Params{C1: 2, C2: 3, D: 12} // δ1 = 6, δ2 = 4, ⌈d/c1⌉ = 6
	const rounds = 200
	recvs := boxedRecvs(4)
	ack := ioa.Action(wire.Recv{Dir: wire.RtoT, P: wire.AckPacket()})

	measure := func(name string, round func()) {
		t.Helper()
		round() // warm
		if n := testing.AllocsPerRun(rounds-10, round); n != 0 {
			t.Errorf("%s: %v allocs per round, want 0", name, n)
		}
	}

	t.Run("alpha", func(t *testing.T) {
		tx, err := NewAlphaTransmitter(p, seededBits(rounds))
		if err != nil {
			t.Fatal(err)
		}
		measure("alpha transmitter", func() {
			stepKind(t, tx, wire.KindSend)
			for i := 1; i < p.CeilSteps1(); i++ {
				stepKind(t, tx, "wait_t")
			}
		})
		rx, err := NewAlphaReceiver(p)
		if err != nil {
			t.Fatal(err)
		}
		rx.y = make([]wire.Bit, 0, 2*rounds)
		bit := 0
		measure("alpha receiver", func() {
			apply(t, rx, recvs[bit])
			bit ^= 1
			stepKind(t, rx, wire.KindWrite)
			stepKind(t, rx, "idle_r")
		})
	})

	t.Run("beta4", func(t *testing.T) {
		bits := BetaBlockBits(p, 4)
		tx, err := NewBetaTransmitter(p, 4, seededBits(rounds*bits))
		if err != nil {
			t.Fatal(err)
		}
		measure("beta transmitter", func() {
			for i := 0; i < p.Delta1(); i++ {
				stepKind(t, tx, wire.KindSend)
			}
			for i := 0; i < p.CeilSteps1(); i++ {
				stepKind(t, tx, "wait_t")
			}
		})
		rx, err := NewBetaReceiver(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		rx.queue = make([]wire.Bit, 0, 2*rounds*bits)
		burst := burstOf(t, rx.codec)
		measure("beta receiver", func() {
			for _, s := range burst {
				apply(t, rx, recvs[s])
			}
			for i := 0; i < bits; i++ {
				stepKind(t, rx, wire.KindWrite)
			}
			stepKind(t, rx, "idle_r")
		})
	})

	t.Run("gamma4", func(t *testing.T) {
		bits := GammaBlockBits(p, 4)
		tx, err := NewGammaTransmitter(p, 4, seededBits(rounds*bits))
		if err != nil {
			t.Fatal(err)
		}
		measure("gamma transmitter", func() {
			for i := 0; i < p.Delta2(); i++ {
				stepKind(t, tx, wire.KindSend)
			}
			stepKind(t, tx, "idle_t")
			for i := 0; i < p.Delta2(); i++ {
				apply(t, tx, ack)
			}
		})
		rx, err := NewGammaReceiver(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		rx.queue = make([]wire.Bit, 0, 2*rounds*bits)
		burst := burstOf(t, rx.codec)
		measure("gamma receiver", func() {
			for _, s := range burst {
				apply(t, rx, recvs[s])
			}
			for i := 0; i < p.Delta2(); i++ {
				stepKind(t, rx, wire.KindSend)
			}
			for i := 0; i < bits; i++ {
				stepKind(t, rx, wire.KindWrite)
			}
			stepKind(t, rx, "idle_r")
		})
	})
}

// BenchmarkBetaStep times one β(4) transmitter step and one receiver
// step, with every data send delivered to the receiver as an
// already-boxed receipt: the core's share of a served step.
func BenchmarkBetaStep(b *testing.B) {
	p := Params{C1: 2, C2: 3, D: 12}
	recvs := boxedRecvs(4)
	x := seededBits(1024 * BetaBlockBits(p, 4))
	var tx *BetaTransmitter
	var rx *BetaReceiver
	reset := func() {
		var err error
		if tx, err = NewBetaTransmitter(p, 4, x); err != nil {
			b.Fatal(err)
		}
		if rx, err = NewBetaReceiver(p, 4); err != nil {
			b.Fatal(err)
		}
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tx.Done() {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		act, _ := tx.NextLocal()
		if err := tx.Apply(act); err != nil {
			b.Fatal(err)
		}
		if s, ok := act.(wire.Send); ok {
			if err := rx.Apply(recvs[s.P.Symbol]); err != nil {
				b.Fatal(err)
			}
		}
		act, _ = rx.NextLocal()
		if err := rx.Apply(act); err != nil {
			b.Fatal(err)
		}
	}
}
