// Package wire defines the packet and message vocabulary shared by the
// channel model and the RSTP protocol automata, together with the external
// actions of the paper's interface: send(p), recv(p) and write(m).
//
// The paper (Section 4) fixes the message domain M = {0,1} and lets the
// transmitter and receiver exchange packets from disjoint alphabets P^tr and
// P^rt through a single channel C(P^tr ∪ P^rt). We encode the direction of
// travel explicitly in the actions, which keeps the two alphabets disjoint
// without string games.
package wire

import (
	"fmt"
	"strconv"
)

// Bit is a single message from the paper's binary domain M = {0,1}.
type Bit byte

const (
	// Zero is the message 0.
	Zero Bit = 0
	// One is the message 1.
	One Bit = 1
)

// Valid reports whether b is one of the two legal messages.
func (b Bit) Valid() bool { return b == Zero || b == One }

// String renders the bit as "0" or "1".
func (b Bit) String() string { return strconv.Itoa(int(b)) }

// Symbol is a packet symbol drawn from the transmitter's k-ary packet
// alphabet {0, ..., k-1}.
type Symbol int

// Dir identifies the direction a packet travels on the channel.
type Dir int

const (
	// TtoR marks packets from the transmitter to the receiver (alphabet P^tr).
	TtoR Dir = iota + 1
	// RtoT marks packets from the receiver to the transmitter (alphabet P^rt).
	RtoT
)

// String renders the direction as "t->r" or "r->t".
func (d Dir) String() string {
	switch d {
	case TtoR:
		return "t->r"
	case RtoT:
		return "r->t"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// PacketKind distinguishes payload-carrying packets from acknowledgements.
type PacketKind int

const (
	// Data packets carry a k-ary symbol from the transmitter's alphabet.
	Data PacketKind = iota + 1
	// Ack packets are the receiver's single acknowledgement packet used by
	// the active protocol A^γ(k); they carry no symbol.
	Ack
	// Coded packets carry one fountain-coded symbol of the rateless burst
	// subsystem (internal/rateless): Symbol holds the coded value and the
	// frame payload the full coded-symbol record (block, index, value,
	// checksum — see AppendCodedSymbol).
	Coded
	// DecodeAck packets are the rateless receiver's decode acknowledgement:
	// Symbol holds the next block it needs and the frame payload the
	// checksummed record, with its mask of blocks decoded past that one
	// (see AppendDecodeAck).
	DecodeAck
)

// String renders the packet kind.
func (k PacketKind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Coded:
		return "coded"
	case DecodeAck:
		return "decode-ack"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Packet is one element of a packet alphabet.
//
// For Data packets, Symbol holds the k-ary symbol. Tag is a small protocol
// tag (unused by the RSTP protocols; the alternating-bit baseline in
// internal/stp uses it for its one-bit sequence number).
type Packet struct {
	Kind   PacketKind
	Symbol Symbol
	Tag    int
}

// DataPacket returns the data packet carrying symbol s.
func DataPacket(s Symbol) Packet { return Packet{Kind: Data, Symbol: s} }

// AckPacket returns the receiver's acknowledgement packet.
func AckPacket() Packet { return Packet{Kind: Ack} }

// String renders the packet, e.g. "data(3)" or "ack".
func (p Packet) String() string {
	switch p.Kind {
	case Data:
		if p.Tag != 0 {
			return fmt.Sprintf("data(%d,tag=%d)", int(p.Symbol), p.Tag)
		}
		return fmt.Sprintf("data(%d)", int(p.Symbol))
	case Ack:
		if p.Tag != 0 {
			return fmt.Sprintf("ack(tag=%d)", p.Tag)
		}
		return "ack"
	default:
		return fmt.Sprintf("packet(%v)", p.Kind)
	}
}

// Action kind names used across the repository. Every action in the RSTP
// composition is one of these kinds (plus protocol-internal actions, which
// use their own names such as "wait_t" and "idle_r").
const (
	KindSend  = "send"
	KindRecv  = "recv"
	KindWrite = "write"
)

// Send is the action send(p): an output of the sending process and an input
// of the channel.
//
// Payload is opaque extension data the serving layer hands to the
// outgoing Frame.Payload (and back out on Recv) — the rateless subsystem
// rides its coded-symbol records on it. It is a string rather than a
// []byte so actions stay comparable (the channel model pairs sends with
// recvs by value); the RSTP protocols leave it empty.
type Send struct {
	Dir     Dir
	P       Packet
	Payload string
}

// Kind returns "send".
func (Send) Kind() string { return KindSend }

// String renders the action, e.g. "send[t->r](data(3))".
func (s Send) String() string { return fmt.Sprintf("send[%v](%v)", s.Dir, s.P) }

// Recv is the action recv(p): an output of the channel and an input of the
// destination process. Payload mirrors Send.Payload (see there).
type Recv struct {
	Dir     Dir
	P       Packet
	Payload string
}

// Kind returns "recv".
func (Recv) Kind() string { return KindRecv }

// String renders the action, e.g. "recv[t->r](data(3))".
func (r Recv) String() string { return fmt.Sprintf("recv[%v](%v)", r.Dir, r.P) }

// Write is the action write(m): the receiver appending message m to its
// output tape Y.
type Write struct {
	M Bit
}

// Kind returns "write".
func (Write) Kind() string { return KindWrite }

// String renders the action, e.g. "write(1)".
func (w Write) String() string { return fmt.Sprintf("write(%v)", w.M) }

// Internal is a protocol-internal action such as the paper's wait_t or
// idle_r. Name doubles as the action kind.
type Internal struct {
	Name string
}

// Kind returns the internal action's name.
func (i Internal) Kind() string { return i.Name }

// String renders the internal action name.
func (i Internal) String() string { return i.Name }

// BitsToString renders a bit sequence as a compact 0/1 string.
func BitsToString(bits []Bit) string {
	buf := make([]byte, len(bits))
	for i, b := range bits {
		buf[i] = '0' + byte(b)
	}
	return string(buf)
}

// ParseBits parses a 0/1 string into a bit sequence.
func ParseBits(s string) ([]Bit, error) {
	bits := make([]Bit, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			bits[i] = Zero
		case '1':
			bits[i] = One
		default:
			return nil, fmt.Errorf("wire: invalid bit character %q at index %d", s[i], i)
		}
	}
	return bits, nil
}

// RandomBits returns n bits drawn from the given step function; the caller
// supplies the randomness source as a func returning uniformly random
// uint64s (typically rand.Uint64), keeping this package free of global
// random state.
func RandomBits(n int, next func() uint64) []Bit {
	bits := make([]Bit, n)
	var (
		word uint64
		left int
	)
	for i := range bits {
		if left == 0 {
			word = next()
			left = 64
		}
		bits[i] = Bit(word & 1)
		word >>= 1
		left--
	}
	return bits
}
