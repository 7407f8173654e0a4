package rstpx

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/rstp"
	"repro/internal/wire"
)

// forkSink keeps each fork reachable, so the count includes the copy.
var forkSink any

// TestForkConstructAllocs pins each Fork at a struct copy plus the
// mutable slices the automaton owns (the receiver's multiset counts and
// decoded queue); the input, encoded symbols and codec are shared.
func TestForkConstructAllocs(t *testing.T) {
	gp := GenParams{TC1: 2, TC2: 3, RC1: 2, RC2: 3, D1: 4, D2: 12}
	x := make([]wire.Bit, 24)
	at, err := NewGenAlphaTransmitter(gp, x)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewGenBetaTransmitter(gp, 4, 6, x)
	if err != nil {
		t.Fatal(err)
	}
	br, err := NewGenBetaReceiver(gp, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	// One whole burst gives the receiver a decoded queue.
	for sent := 0; sent < 6; {
		act, _ := bt.NextLocal()
		if err := bt.Apply(act); err != nil {
			t.Fatal(err)
		}
		if s, ok := act.(wire.Send); ok {
			if err := br.Apply(rstp.RecvAction(s.Dir, s.P, s.Payload)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}
	cases := []struct {
		name   string
		fork   func() (ioa.Automaton, error)
		budget float64
	}{
		{"genalpha/t", func() (ioa.Automaton, error) { return at.Fork() }, 1},
		{"genbeta/t", func() (ioa.Automaton, error) { return bt.Fork() }, 1},
		{"genbeta/r", func() (ioa.Automaton, error) { return br.Fork() }, 3},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(200, func() {
			var err error
			if forkSink, err = c.fork(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("%s: Fork = %v allocs, budget %v", c.name, got, c.budget)
		}
	}
}
