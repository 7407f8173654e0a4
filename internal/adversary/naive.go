package adversary

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// NaiveTransmitter is the strawman protocol Lemma 5.1's adversary defeats:
// it streams the input bits directly, one per step, with no inter-send
// wait and no encoding. Within any δ1-step window it therefore reveals
// only *how many ones* it sent — e.g. inputs 0001... and 1000... have
// identical profiles — so no receiver can tell permutations of a window
// apart, and the protocol is provably not a solution to RSTP.
type NaiveTransmitter struct {
	x []wire.Bit
	i int
}

var _ ioa.Deterministic = (*NaiveTransmitter)(nil)

// NewNaiveTransmitter builds the strawman transmitter for input x.
func NewNaiveTransmitter(x []wire.Bit) (*NaiveTransmitter, error) {
	for idx, b := range x {
		if !b.Valid() {
			return nil, fmt.Errorf("adversary: naive transmitter: invalid bit at %d", idx)
		}
	}
	return &NaiveTransmitter{x: append([]wire.Bit(nil), x...)}, nil
}

// naiveTransmitterTable is the strawman transmitter's program.
var naiveTransmitterTable = ioa.MustTable(ioa.Table[NaiveTransmitter]{
	Name:     "t",
	Classify: (*NaiveTransmitter).classify,
	Cmds: []ioa.Cmd[NaiveTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *NaiveTransmitter) bool { return t.i < len(t.x) },
			Act: func(t *NaiveTransmitter) ioa.Action {
				return wire.Send{Dir: wire.TtoR, P: wire.DataPacket(wire.Symbol(t.x[t.i]))}
			},
			Eff: func(t *NaiveTransmitter) { t.i++ },
		},
	},
})

func (t *NaiveTransmitter) classify(a ioa.Action) ioa.Class {
	if s, ok := a.(wire.Send); ok && s.Dir == wire.TtoR && s.P.Kind == wire.Data {
		return ioa.ClassOutput
	}
	return ioa.ClassNone
}

// Name returns "t".
func (t *NaiveTransmitter) Name() string { return naiveTransmitterTable.Name }

// Classify places an action in the signature.
func (t *NaiveTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *NaiveTransmitter) NextLocal() (ioa.Action, bool) { return naiveTransmitterTable.NextLocal(t) }

// Apply performs a transition.
func (t *NaiveTransmitter) Apply(a ioa.Action) error { return naiveTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *NaiveTransmitter) DeterministicIOA() bool { return true }

// NaiveReceiver writes arriving symbols directly, in arrival order — the
// best a receiver can do for the naive transmitter.
type NaiveReceiver struct {
	y []wire.Bit
	k int
}

var _ ioa.Deterministic = (*NaiveReceiver)(nil)

// NewNaiveReceiver builds the strawman receiver.
func NewNaiveReceiver() (*NaiveReceiver, error) {
	return &NaiveReceiver{}, nil
}

// naiveReceiverTable is the strawman receiver's program.
var naiveReceiverTable = ioa.MustTable(ioa.Table[NaiveReceiver]{
	Name:     "r",
	Classify: (*NaiveReceiver).classify,
	OnInput:  (*NaiveReceiver).onInput,
	Cmds: []ioa.Cmd[NaiveReceiver]{
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *NaiveReceiver) bool { return r.k < len(r.y) },
			Act:   func(r *NaiveReceiver) ioa.Action { return wire.Write{M: r.y[r.k]} },
			Eff:   func(r *NaiveReceiver) { r.k++ },
		},
		{
			Name:  "idle_r",
			Class: ioa.ClassInternal,
			Pre:   func(*NaiveReceiver) bool { return true },
			Act:   func(*NaiveReceiver) ioa.Action { return wire.Internal{Name: "idle_r"} },
			Eff:   func(*NaiveReceiver) {},
		},
	},
})

func (r *NaiveReceiver) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Recv:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Data {
			return ioa.ClassInput
		}
	case wire.Write:
		return ioa.ClassOutput
	case wire.Internal:
		if act.Name == "idle_r" {
			return ioa.ClassInternal
		}
	}
	return ioa.ClassNone
}

func (r *NaiveReceiver) onInput(a ioa.Action) error {
	recv, ok := a.(wire.Recv)
	if !ok {
		return fmt.Errorf("adversary: naive receiver: unexpected input %v: %w", a, ioa.ErrNotInSignature)
	}
	r.y = append(r.y, wire.Bit(recv.P.Symbol))
	return nil
}

// Name returns "r".
func (r *NaiveReceiver) Name() string { return naiveReceiverTable.Name }

// Classify places an action in the signature.
func (r *NaiveReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *NaiveReceiver) NextLocal() (ioa.Action, bool) { return naiveReceiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *NaiveReceiver) Apply(a ioa.Action) error { return naiveReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *NaiveReceiver) DeterministicIOA() bool { return true }
