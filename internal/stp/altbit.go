// Package stp implements the classical (untimed) sequence transmission
// context the paper's introduction builds on: the Alternating Bit protocol
// of Bartlett, Scantlebury and Wilkinson [BSW69], which solves STP over
// channels that lose and duplicate packets.
//
// It serves as the baseline of experiment E9: correct without any
// real-time assumption, but with unbounded worst-case effort — each
// message costs a geometric number of retransmissions — whereas the RSTP
// protocols exploit Σ/Δ timing to achieve constant effort per message.
package stp

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// ABTransmitter is the alternating-bit transmitter: it retransmits the
// current message, tagged with the one-bit sequence number i mod 2, on
// every step until the matching acknowledgement arrives.
type ABTransmitter struct {
	x []wire.Bit
	i int
}

var _ ioa.Deterministic = (*ABTransmitter)(nil)

// NewABTransmitter builds the transmitter for input x.
func NewABTransmitter(x []wire.Bit) (*ABTransmitter, error) {
	for idx, b := range x {
		if !b.Valid() {
			return nil, fmt.Errorf("stp: ab transmitter: invalid bit at %d", idx)
		}
	}
	return &ABTransmitter{x: append([]wire.Bit(nil), x...)}, nil
}

// abTransmitterTable is the alternating-bit transmitter's program.
var abTransmitterTable = ioa.MustTable(ioa.Table[ABTransmitter]{
	Name:     "t",
	Classify: (*ABTransmitter).classify,
	OnInput:  (*ABTransmitter).onInput,
	Cmds: []ioa.Cmd[ABTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *ABTransmitter) bool { return t.i < len(t.x) },
			Act: func(t *ABTransmitter) ioa.Action {
				return wire.Send{Dir: wire.TtoR, P: wire.Packet{
					Kind:   wire.Data,
					Symbol: wire.Symbol(t.x[t.i]),
					Tag:    t.i % 2,
				}}
			},
			Eff: func(*ABTransmitter) {}, // keep retransmitting until acked
		},
	},
})

// Fork returns an independent copy in the same state, for state-space
// exploration. The input is never written, so the copy shares it.
func (t *ABTransmitter) Fork() (*ABTransmitter, error) {
	c := *t
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (t *ABTransmitter) Snapshot() string { return fmt.Sprintf("i=%d", t.i) }

func (t *ABTransmitter) classify(a ioa.Action) ioa.Class {
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

func (t *ABTransmitter) onInput(a ioa.Action) error {
	recv, ok := a.(wire.Recv)
	if !ok {
		return fmt.Errorf("stp: ab transmitter: unexpected input %v: %w", a, ioa.ErrNotInSignature)
	}
	// Advance on a matching ack; stale acks (the other tag) are ignored.
	if t.i < len(t.x) && recv.P.Tag == t.i%2 {
		t.i++
	}
	return nil
}

// Name returns "t".
func (t *ABTransmitter) Name() string { return abTransmitterTable.Name }

// Classify places an action in the signature.
func (t *ABTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *ABTransmitter) NextLocal() (ioa.Action, bool) { return abTransmitterTable.NextLocal(t) }

// Apply performs a transition.
func (t *ABTransmitter) Apply(a ioa.Action) error { return abTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *ABTransmitter) DeterministicIOA() bool { return true }

// Done reports whether every message has been acknowledged.
func (t *ABTransmitter) Done() bool { return t.i >= len(t.x) }

// Sent reports how many messages have been acknowledged so far.
func (t *ABTransmitter) Sent() int { return t.i }

// ABReceiver is the alternating-bit receiver: it accepts a packet whose
// tag matches the expected sequence bit (writing its payload), discards
// duplicates, and acknowledges every received packet with the packet's
// own tag.
type ABReceiver struct {
	expected int // tag the next new message will carry
	ackTag   int // tag of the most recently received packet
	ackDue   int // outstanding acknowledgements
	queue    []wire.Bit
	next     int
}

var _ ioa.Deterministic = (*ABReceiver)(nil)

// NewABReceiver builds the receiver.
func NewABReceiver() (*ABReceiver, error) {
	return &ABReceiver{}, nil
}

// abReceiverTable is the alternating-bit receiver's program.
var abReceiverTable = ioa.MustTable(ioa.Table[ABReceiver]{
	Name:     "r",
	Classify: (*ABReceiver).classify,
	OnInput:  (*ABReceiver).onInput,
	Cmds: []ioa.Cmd[ABReceiver]{
		{
			Name:  "send_ack",
			Class: ioa.ClassOutput,
			Pre:   func(r *ABReceiver) bool { return r.ackDue > 0 },
			Act: func(r *ABReceiver) ioa.Action {
				return wire.Send{Dir: wire.RtoT, P: wire.Packet{Kind: wire.Ack, Tag: r.ackTag}}
			},
			Eff: func(r *ABReceiver) { r.ackDue-- },
		},
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *ABReceiver) bool { return r.next < len(r.queue) },
			Act:   func(r *ABReceiver) ioa.Action { return wire.Write{M: r.queue[r.next]} },
			Eff:   func(r *ABReceiver) { r.next++ },
		},
		{
			Name:  "idle_r",
			Class: ioa.ClassInternal,
			Pre:   func(*ABReceiver) bool { return true },
			Act:   func(*ABReceiver) ioa.Action { return wire.Internal{Name: "idle_r"} },
			Eff:   func(*ABReceiver) {},
		},
	},
})

// Fork returns an independent copy in the same state, for state-space
// exploration: it copies the received queue.
func (r *ABReceiver) Fork() (*ABReceiver, error) {
	c := *r
	c.queue = append([]wire.Bit(nil), r.queue...)
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (r *ABReceiver) Snapshot() string {
	return fmt.Sprintf("exp=%d ackTag=%d due=%d q=%s next=%d",
		r.expected, r.ackTag, r.ackDue, wire.BitsToString(r.queue), r.next)
}

// WrittenBits returns Y: the messages written so far, in order.
func (r *ABReceiver) WrittenBits() []wire.Bit {
	return append([]wire.Bit(nil), r.queue[:r.next]...)
}

func (r *ABReceiver) classify(a ioa.Action) ioa.Class {
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

func (r *ABReceiver) onInput(a ioa.Action) error {
	recv, ok := a.(wire.Recv)
	if !ok {
		return fmt.Errorf("stp: ab receiver: unexpected input %v: %w", a, ioa.ErrNotInSignature)
	}
	if recv.P.Tag == r.expected {
		r.queue = append(r.queue, wire.Bit(recv.P.Symbol))
		r.expected ^= 1
	}
	// Acknowledge everything — duplicates included — with the packet's tag
	// (a duplicate means the previous ack was lost).
	r.ackTag = recv.P.Tag
	r.ackDue++
	return nil
}

// Name returns "r".
func (r *ABReceiver) Name() string { return abReceiverTable.Name }

// Classify places an action in the signature.
func (r *ABReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *ABReceiver) NextLocal() (ioa.Action, bool) { return abReceiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *ABReceiver) Apply(a ioa.Action) error { return abReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *ABReceiver) DeterministicIOA() bool { return true }

// Written returns the number of messages written.
func (r *ABReceiver) Written() int { return r.next }
