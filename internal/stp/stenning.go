package stp

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// Stenning's data transfer protocol [Ste76], the other classical STP
// solution the introduction cites: unbounded sequence numbers instead of
// the alternating bit. The transmitter retransmits the current message
// tagged with its index; the receiver accepts exactly the next expected
// index and acknowledges with the index it accepted. Unlike the
// alternating bit, unbounded sequence numbers survive reordering AND
// duplication (at the price of unbounded packet headers — which is the
// whole point of the finite-alphabet impossibility line [WZ89, MS89]
// the paper continues).
//
// Tags ride in wire.Packet.Tag; the simulator's packets carry ints, which
// models the unbounded header the literature charges this protocol for.

// StenningTransmitter retransmits message i tagged i until ack(i) arrives.
type StenningTransmitter struct {
	x []wire.Bit
	i int
}

var _ ioa.Deterministic = (*StenningTransmitter)(nil)

// NewStenningTransmitter builds the transmitter for input x.
func NewStenningTransmitter(x []wire.Bit) (*StenningTransmitter, error) {
	for idx, b := range x {
		if !b.Valid() {
			return nil, fmt.Errorf("stp: stenning transmitter: invalid bit at %d", idx)
		}
	}
	return &StenningTransmitter{x: append([]wire.Bit(nil), x...)}, nil
}

// stenningTransmitterTable is the Stenning transmitter's program.
var stenningTransmitterTable = ioa.MustTable(ioa.Table[StenningTransmitter]{
	Name:     "t",
	Classify: (*StenningTransmitter).classify,
	OnInput:  (*StenningTransmitter).onInput,
	Cmds: []ioa.Cmd[StenningTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *StenningTransmitter) bool { return t.i < len(t.x) },
			Act: func(t *StenningTransmitter) ioa.Action {
				return wire.Send{Dir: wire.TtoR, P: wire.Packet{
					Kind:   wire.Data,
					Symbol: wire.Symbol(t.x[t.i]),
					Tag:    t.i + 1, // 1-based so the zero Tag never aliases
				}}
			},
			Eff: func(*StenningTransmitter) {},
		},
	},
})

func (t *StenningTransmitter) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Send:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Data {
			return ioa.ClassOutput
		}
	case wire.Recv:
		if act.Dir == wire.RtoT && act.P.Kind == wire.Ack {
			return ioa.ClassInput
		}
	}
	return ioa.ClassNone
}

func (t *StenningTransmitter) onInput(a ioa.Action) error {
	recv, ok := a.(wire.Recv)
	if !ok {
		return fmt.Errorf("stp: stenning transmitter: unexpected input %v: %w", a, ioa.ErrNotInSignature)
	}
	// Advance past every index the receiver has confirmed; stale and
	// duplicate acks (<= current) are no-ops, future ones impossible.
	if recv.P.Tag == t.i+1 && t.i < len(t.x) {
		t.i++
	}
	return nil
}

// Name returns "t".
func (t *StenningTransmitter) Name() string { return stenningTransmitterTable.Name }

// Classify places an action in the signature.
func (t *StenningTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *StenningTransmitter) NextLocal() (ioa.Action, bool) {
	return stenningTransmitterTable.NextLocal(t)
}

// Apply performs a transition.
func (t *StenningTransmitter) Apply(a ioa.Action) error { return stenningTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *StenningTransmitter) DeterministicIOA() bool { return true }

// Done reports whether every message has been acknowledged.
func (t *StenningTransmitter) Done() bool { return t.i >= len(t.x) }

// StenningReceiver accepts exactly the next expected index; every
// received packet is (re-)acknowledged with the highest accepted index.
type StenningReceiver struct {
	expected int // next index to accept (1-based)
	ackDue   int
	queue    []wire.Bit
	next     int
}

var _ ioa.Deterministic = (*StenningReceiver)(nil)

// NewStenningReceiver builds the receiver.
func NewStenningReceiver() (*StenningReceiver, error) {
	return &StenningReceiver{expected: 1}, nil
}

// stenningReceiverTable is the Stenning receiver's program.
var stenningReceiverTable = ioa.MustTable(ioa.Table[StenningReceiver]{
	Name:     "r",
	Classify: (*StenningReceiver).classify,
	OnInput:  (*StenningReceiver).onInput,
	Cmds: []ioa.Cmd[StenningReceiver]{
		{
			Name:  "send_ack",
			Class: ioa.ClassOutput,
			Pre:   func(r *StenningReceiver) bool { return r.ackDue > 0 },
			Act: func(r *StenningReceiver) ioa.Action {
				return wire.Send{Dir: wire.RtoT, P: wire.Packet{Kind: wire.Ack, Tag: r.expected - 1}}
			},
			Eff: func(r *StenningReceiver) { r.ackDue-- },
		},
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *StenningReceiver) bool { return r.next < len(r.queue) },
			Act:   func(r *StenningReceiver) ioa.Action { return wire.Write{M: r.queue[r.next]} },
			Eff:   func(r *StenningReceiver) { r.next++ },
		},
		{
			Name:  "idle_r",
			Class: ioa.ClassInternal,
			Pre:   func(*StenningReceiver) bool { return true },
			Act:   func(*StenningReceiver) ioa.Action { return wire.Internal{Name: "idle_r"} },
			Eff:   func(*StenningReceiver) {},
		},
	},
})

func (r *StenningReceiver) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Recv:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Data {
			return ioa.ClassInput
		}
	case wire.Send:
		if act.Dir == wire.RtoT && act.P.Kind == wire.Ack {
			return ioa.ClassOutput
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

func (r *StenningReceiver) onInput(a ioa.Action) error {
	recv, ok := a.(wire.Recv)
	if !ok {
		return fmt.Errorf("stp: stenning receiver: unexpected input %v: %w", a, ioa.ErrNotInSignature)
	}
	if recv.P.Tag == r.expected {
		r.queue = append(r.queue, wire.Bit(recv.P.Symbol))
		r.expected++
	}
	// Every packet (duplicate, stale or accepted) triggers an ack carrying
	// the highest accepted index, so lost acks are repaired by
	// retransmissions.
	r.ackDue++
	return nil
}

// Name returns "r".
func (r *StenningReceiver) Name() string { return stenningReceiverTable.Name }

// Classify places an action in the signature.
func (r *StenningReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *StenningReceiver) NextLocal() (ioa.Action, bool) { return stenningReceiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *StenningReceiver) Apply(a ioa.Action) error { return stenningReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *StenningReceiver) DeterministicIOA() bool { return true }

// Written returns the number of messages written.
func (r *StenningReceiver) Written() int { return r.next }
