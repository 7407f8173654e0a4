package rstp

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// A^α — the simple r-passive solution of Section 4, Figure 1.
//
// The transmitter sends one message per round and then idles long enough
// (⌈d/c1⌉ - 1 wait steps, i.e. consecutive sends at least ⌈d/c1⌉ steps and
// hence at least d ticks apart) that packets can never overtake each
// other. The receiver writes packets in arrival order.
//
// Its effort is exactly ⌈d/c1⌉·c2 = δ1·c2 = d·c2/c1 when c1 | d.

// alphaSends holds A^α's two data sends, one per message of M.
var alphaSends = DataSends(2)

// AlphaTransmitter is A^α's transmitter automaton At^α.
type AlphaTransmitter struct {
	x []wire.Bit
	i int // index of the next message to send (the paper's i)
	j int // steps taken in the current round (the paper's j)
	s int // steps per round: ⌈d/c1⌉
}

var _ ioa.Deterministic = (*AlphaTransmitter)(nil)

// NewAlphaTransmitter builds At^α for input sequence x.
func NewAlphaTransmitter(p Params, x []wire.Bit) (*AlphaTransmitter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for idx, b := range x {
		if !b.Valid() {
			return nil, fmt.Errorf("rstp: alpha transmitter: invalid bit at %d", idx)
		}
	}
	return &AlphaTransmitter{
		x: append([]wire.Bit(nil), x...),
		s: p.CeilSteps1(),
	}, nil
}

// alphaTransmitterTable is At^α's program (Figure 1).
var alphaTransmitterTable = ioa.MustTable(ioa.Table[AlphaTransmitter]{
	Name:     TransmitterName,
	Classify: (*AlphaTransmitter).classify,
	Cmds: []ioa.Cmd[AlphaTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *AlphaTransmitter) bool { return t.j == 0 && t.i < len(t.x) },
			Act:   func(t *AlphaTransmitter) ioa.Action { return alphaSends[t.x[t.i]] },
			Eff:   func(t *AlphaTransmitter) { t.j = 1 },
		},
		{
			Name:  "wait_t",
			Class: ioa.ClassInternal,
			Pre:   func(t *AlphaTransmitter) bool { return t.j > 0 },
			Act:   func(*AlphaTransmitter) ioa.Action { return WaitT },
			Eff: func(t *AlphaTransmitter) {
				t.j++
				if t.j == t.s {
					t.i++
					t.j = 0
				}
			},
		},
	},
})

// Fork returns an independent copy in the same state, for state-space
// exploration. The input is never written, so the copy shares it.
func (t *AlphaTransmitter) Fork() (*AlphaTransmitter, error) {
	c := *t
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (t *AlphaTransmitter) Snapshot() string { return fmt.Sprintf("i=%d j=%d", t.i, t.j) }

func (t *AlphaTransmitter) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Send:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Data {
			return ioa.ClassOutput
		}
	case wire.Internal:
		if act.Name == "wait_t" {
			return ioa.ClassInternal
		}
	}
	return ioa.ClassNone
}

// Name returns "t".
func (t *AlphaTransmitter) Name() string { return alphaTransmitterTable.Name }

// Classify places an action in the signature.
func (t *AlphaTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *AlphaTransmitter) NextLocal() (ioa.Action, bool) { return alphaTransmitterTable.NextLocal(t) }

// Apply performs a transition.
func (t *AlphaTransmitter) Apply(a ioa.Action) error { return alphaTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *AlphaTransmitter) DeterministicIOA() bool { return true }

// Done reports whether every message has been sent and the final round's
// wait has completed.
func (t *AlphaTransmitter) Done() bool { return t.i >= len(t.x) && t.j == 0 }

// AlphaReceiver is A^α's receiver automaton Ar^α: it stores received
// messages (the paper's unbounded array y) and writes them in order.
type AlphaReceiver struct {
	y []wire.Bit // messages received, in arrival order
	k int        // number of messages written (paper's k, 0-based here)
}

var _ ioa.Deterministic = (*AlphaReceiver)(nil)

// NewAlphaReceiver builds Ar^α.
func NewAlphaReceiver(p Params) (*AlphaReceiver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &AlphaReceiver{}, nil
}

// alphaReceiverTable is Ar^α's program (Figure 1).
var alphaReceiverTable = ioa.MustTable(ioa.Table[AlphaReceiver]{
	Name:     ReceiverName,
	Classify: (*AlphaReceiver).classify,
	OnInput:  (*AlphaReceiver).onInput,
	Cmds: []ioa.Cmd[AlphaReceiver]{
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *AlphaReceiver) bool { return r.k < len(r.y) },
			Act:   func(r *AlphaReceiver) ioa.Action { return WriteAction(r.y[r.k]) },
			Eff:   func(r *AlphaReceiver) { r.k++ },
		},
		IdleRCmd[AlphaReceiver](),
	},
})

// Fork returns an independent copy in the same state, for state-space
// exploration.
func (r *AlphaReceiver) Fork() (*AlphaReceiver, error) {
	c := *r
	c.y = append([]wire.Bit(nil), r.y...)
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (r *AlphaReceiver) Snapshot() string {
	return fmt.Sprintf("y=%s k=%d", wire.BitsToString(r.y), r.k)
}

// WrittenBits returns Y: the messages written so far, in order.
func (r *AlphaReceiver) WrittenBits() []wire.Bit {
	return append([]wire.Bit(nil), r.y[:r.k]...)
}

func (r *AlphaReceiver) classify(a ioa.Action) ioa.Class {
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

func (r *AlphaReceiver) onInput(a ioa.Action) error {
	recv, ok := a.(wire.Recv)
	if !ok {
		return fmt.Errorf("rstp: alpha receiver: unexpected input %v: %w", a, ioa.ErrNotInSignature)
	}
	// Input-enabled: store whatever arrives; a symbol outside M shows up
	// as an output-tape mismatch caught by the prefix validator.
	r.y = append(r.y, wire.Bit(recv.P.Symbol))
	return nil
}

// Name returns "r".
func (r *AlphaReceiver) Name() string { return alphaReceiverTable.Name }

// Classify places an action in the signature.
func (r *AlphaReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *AlphaReceiver) NextLocal() (ioa.Action, bool) { return alphaReceiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *AlphaReceiver) Apply(a ioa.Action) error { return alphaReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *AlphaReceiver) DeterministicIOA() bool { return true }

// Written returns the number of messages written so far.
func (r *AlphaReceiver) Written() int { return r.k }
