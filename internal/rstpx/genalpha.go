package rstpx

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// GenAlpha is A^α lifted to the Section 7 window model: one message per
// packet, consecutive sends separated by enough steps to cover the
// reordering slack d2 - d1 (not all of d2). On a deterministic-delay
// channel it degenerates to streaming one message per step.
//
// Round length: sends recur every r = max(1, ⌈slack/tc1⌉) steps, so the
// inter-send time is at least r·tc1 >= slack even at the fastest pace
// (ties resolved by send order, as everywhere in this repository). At
// d1 = 0 this is the classical ⌈d/c1⌉; at d1 = d2 it is one step.
//
// Effort: r · tc2 per message — ⌈d/c1⌉·c2 at d1 = 0, tc2 at d1 = d2.

// GenAlphaRoundSteps returns r, the steps per message round.
func GenAlphaRoundSteps(p GenParams) int {
	if p.Slack() <= 0 {
		return 1
	}
	r := int((p.Slack() + p.TC1 - 1) / p.TC1)
	if r < 1 {
		r = 1
	}
	return r
}

// GenAlphaEffort returns the generalised simple-protocol effort.
func GenAlphaEffort(p GenParams) float64 {
	return float64(int64(GenAlphaRoundSteps(p)) * p.TC2)
}

// GenAlphaTransmitter sends one message then waits WaitSteps steps.
type GenAlphaTransmitter struct {
	x []wire.Bit
	i int
	j int
	s int // steps per round: WaitSteps + 1
}

var _ ioa.Deterministic = (*GenAlphaTransmitter)(nil)

// NewGenAlphaTransmitter builds the generalised simple transmitter.
func NewGenAlphaTransmitter(p GenParams, x []wire.Bit) (*GenAlphaTransmitter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for idx, b := range x {
		if !b.Valid() {
			return nil, fmt.Errorf("rstpx: genalpha transmitter: invalid bit at %d", idx)
		}
	}
	return &GenAlphaTransmitter{
		x: append([]wire.Bit(nil), x...),
		s: GenAlphaRoundSteps(p),
	}, nil
}

// genAlphaTransmitterTable is the generalised simple transmitter's program.
var genAlphaTransmitterTable = ioa.MustTable(ioa.Table[GenAlphaTransmitter]{
	Name:     "t",
	Classify: (*GenAlphaTransmitter).classify,
	Cmds: []ioa.Cmd[GenAlphaTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *GenAlphaTransmitter) bool { return t.j == 0 && t.i < len(t.x) },
			Act: func(t *GenAlphaTransmitter) ioa.Action {
				return wire.Send{Dir: wire.TtoR, P: wire.DataPacket(wire.Symbol(t.x[t.i]))}
			},
			Eff: func(t *GenAlphaTransmitter) {
				if t.s == 1 {
					t.i++ // streaming: no wait at all
					return
				}
				t.j = 1
			},
		},
		{
			Name:  "wait_t",
			Class: ioa.ClassInternal,
			Pre:   func(t *GenAlphaTransmitter) bool { return t.j > 0 },
			Act:   func(*GenAlphaTransmitter) ioa.Action { return wire.Internal{Name: "wait_t"} },
			Eff: func(t *GenAlphaTransmitter) {
				t.j++
				if t.j == t.s {
					t.i++
					t.j = 0
				}
			},
		},
	},
})

func (t *GenAlphaTransmitter) classify(a ioa.Action) ioa.Class {
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
func (t *GenAlphaTransmitter) Name() string { return genAlphaTransmitterTable.Name }

// Classify places an action in the signature.
func (t *GenAlphaTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *GenAlphaTransmitter) NextLocal() (ioa.Action, bool) {
	return genAlphaTransmitterTable.NextLocal(t)
}

// Apply performs a transition.
func (t *GenAlphaTransmitter) Apply(a ioa.Action) error { return genAlphaTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *GenAlphaTransmitter) DeterministicIOA() bool { return true }

// Done reports whether every message was sent and waited out.
func (t *GenAlphaTransmitter) Done() bool { return t.i >= len(t.x) && t.j == 0 }

// Fork returns an independent copy, for state-space exploration. The
// input is never written, so the copy shares it.
func (t *GenAlphaTransmitter) Fork() (*GenAlphaTransmitter, error) {
	c := *t
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (t *GenAlphaTransmitter) Snapshot() string { return fmt.Sprintf("i=%d j=%d", t.i, t.j) }
