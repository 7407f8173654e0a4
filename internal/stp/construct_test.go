package stp

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// forkSink keeps each fork reachable, so the count includes the copy.
var forkSink any

// TestForkConstructAllocs pins each alternating-bit Fork at a struct
// copy plus the receiver's queue; the input is shared.
func TestForkConstructAllocs(t *testing.T) {
	tx, err := NewABTransmitter([]wire.Bit{wire.One, wire.Zero})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewABReceiver()
	if err != nil {
		t.Fatal(err)
	}
	act, _ := tx.NextLocal()
	s := act.(wire.Send)
	if err := rx.Apply(wire.Recv{Dir: s.Dir, P: s.P}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		fork   func() (ioa.Automaton, error)
		budget float64
	}{
		{"ab/t", func() (ioa.Automaton, error) { return tx.Fork() }, 1},
		{"ab/r", func() (ioa.Automaton, error) { return rx.Fork() }, 2},
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
