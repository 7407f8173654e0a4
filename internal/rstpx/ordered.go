package rstpx

import (
	"fmt"
	"math/big"

	"repro/internal/ioa"
	"repro/internal/multiset"
	"repro/internal/rstp"
	"repro/internal/wire"
)

// OrderedBetaReceiver is the ablation of A^β's central design choice: it
// decodes each burst from the *sequence* of arrivals instead of the
// multiset, interpreting the burst as base-k digits (most significant
// first). Pairing it with an OrderedBetaTransmitter yields a protocol
// that carries burst·log2(k) bits per burst — more than the multiset
// code — but whose correctness depends on in-burst arrival order, which
// Δ(C(P)) does NOT guarantee: the reverse-burst adversary corrupts it
// while leaving A^β untouched. (This is precisely the gap between the
// paper's lower bound — multisets are all the receiver can trust — and a
// naive sequence code.)
type OrderedBetaReceiver struct {
	k      int
	burst  int
	bits   int
	cur    []wire.Symbol
	queue  []wire.Bit
	next   int
	broken bool // set when a burst decodes to a non-codeword
}

var _ ioa.Deterministic = (*OrderedBetaReceiver)(nil)

// OrderedBlockBits returns ⌊burst·log2 k⌋ computed exactly: the number of
// bits the ordered (sequence) code carries per burst.
func OrderedBlockBits(k, burst int) int {
	kn := new(big.Int).Exp(big.NewInt(int64(k)), big.NewInt(int64(burst)), nil)
	return kn.BitLen() - 1
}

// NewOrderedBetaReceiver builds the order-dependent receiver.
func NewOrderedBetaReceiver(p GenParams, k, burst int) (*OrderedBetaReceiver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k < 2 || burst < 1 {
		return nil, fmt.Errorf("rstpx: ordered receiver needs k >= 2 and burst >= 1")
	}
	return &OrderedBetaReceiver{
		k:     k,
		burst: burst,
		bits:  OrderedBlockBits(k, burst),
	}, nil
}

// orderedReceiverTable is the order-dependent receiver's program.
var orderedReceiverTable = ioa.MustTable(ioa.Table[OrderedBetaReceiver]{
	Name:     "r",
	Classify: (*OrderedBetaReceiver).classify,
	OnInput:  (*OrderedBetaReceiver).onInput,
	Cmds: []ioa.Cmd[OrderedBetaReceiver]{
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *OrderedBetaReceiver) bool { return r.next < len(r.queue) },
			Act:   func(r *OrderedBetaReceiver) ioa.Action { return wire.Write{M: r.queue[r.next]} },
			Eff:   func(r *OrderedBetaReceiver) { r.next++ },
		},
		rstp.IdleRCmd[OrderedBetaReceiver](),
	},
})

func (r *OrderedBetaReceiver) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Recv:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Data &&
			act.P.Symbol >= 0 && int(act.P.Symbol) < r.k {
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

func (r *OrderedBetaReceiver) onInput(act ioa.Action) error {
	recv, ok := act.(wire.Recv)
	if !ok {
		return fmt.Errorf("rstpx: ordered receiver: unexpected input %v: %w", act, ioa.ErrNotInSignature)
	}
	r.cur = append(r.cur, recv.P.Symbol)
	if len(r.cur) == r.burst {
		bits, err := DecodeOrdered(r.k, r.bits, r.cur)
		if err != nil {
			// A sequence outside the encodable range: the order code has
			// no redundancy to detect most scrambles, but this one it can.
			r.broken = true
		} else {
			r.queue = append(r.queue, bits...)
		}
		r.cur = nil
	}
	return nil
}

// Name returns "r".
func (r *OrderedBetaReceiver) Name() string { return orderedReceiverTable.Name }

// Classify places an action in the signature.
func (r *OrderedBetaReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *OrderedBetaReceiver) NextLocal() (ioa.Action, bool) {
	return orderedReceiverTable.NextLocal(r)
}

// Apply performs a transition.
func (r *OrderedBetaReceiver) Apply(a ioa.Action) error { return orderedReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *OrderedBetaReceiver) DeterministicIOA() bool { return true }

// Written returns the number of bits written.
func (r *OrderedBetaReceiver) Written() int { return r.next }

// DetectedCorruption reports whether some burst failed to decode.
func (r *OrderedBetaReceiver) DetectedCorruption() bool { return r.broken }

// EncodeOrdered maps a block of bits (MSB first) to the base-k digit
// sequence of its value, most significant digit first, length = burst.
func EncodeOrdered(k, burst int, block []wire.Bit) ([]wire.Symbol, error) {
	bits := OrderedBlockBits(k, burst)
	if len(block) != bits {
		return nil, fmt.Errorf("rstpx: ordered encode wants %d bits, got %d", bits, len(block))
	}
	v := new(big.Int)
	for _, b := range block {
		v.Lsh(v, 1)
		if b == wire.One {
			v.SetBit(v, 0, 1)
		}
	}
	out := make([]wire.Symbol, burst)
	kk := big.NewInt(int64(k))
	rem := new(big.Int)
	for i := burst - 1; i >= 0; i-- {
		v.QuoRem(v, kk, rem)
		out[i] = wire.Symbol(rem.Int64())
	}
	return out, nil
}

// DecodeOrdered inverts EncodeOrdered, rejecting values outside 2^bits.
func DecodeOrdered(k, bits int, seq []wire.Symbol) ([]wire.Bit, error) {
	v := new(big.Int)
	kk := big.NewInt(int64(k))
	for _, s := range seq {
		if s < 0 || int(s) >= k {
			return nil, fmt.Errorf("rstpx: ordered decode: symbol %d outside alphabet", int(s))
		}
		v.Mul(v, kk)
		v.Add(v, big.NewInt(int64(s)))
	}
	limit := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	if v.Cmp(limit) >= 0 {
		return nil, fmt.Errorf("rstpx: ordered decode: value %v >= 2^%d (not a codeword)", v, bits)
	}
	out := make([]wire.Bit, bits)
	for i := 0; i < bits; i++ {
		if v.Bit(bits-1-i) == 1 {
			out[i] = wire.One
		}
	}
	return out, nil
}

// OrderedBetaTransmitter sends blocks through the ordered (sequence)
// code, with the same burst/wait cadence as GenBeta.
type OrderedBetaTransmitter struct {
	blocks [][]wire.Symbol
	bi     int
	c      int
	burst  int
	wait   int
}

var _ ioa.Deterministic = (*OrderedBetaTransmitter)(nil)

// NewOrderedBetaTransmitter builds the order-code transmitter; len(x)
// must be a multiple of OrderedBlockBits(k, burst).
func NewOrderedBetaTransmitter(p GenParams, k, burst int, x []wire.Bit) (*OrderedBetaTransmitter, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k < 2 || burst < 1 {
		return nil, fmt.Errorf("rstpx: ordered transmitter needs k >= 2 and burst >= 1")
	}
	bits := OrderedBlockBits(k, burst)
	if len(x)%bits != 0 {
		return nil, fmt.Errorf("rstpx: |X| = %d not a multiple of block size %d", len(x), bits)
	}
	blocks := make([][]wire.Symbol, 0, len(x)/bits)
	for off := 0; off < len(x); off += bits {
		seq, err := EncodeOrdered(k, burst, x[off:off+bits])
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, seq)
	}
	return &OrderedBetaTransmitter{blocks: blocks, burst: burst, wait: p.WaitSteps()}, nil
}

// orderedTransmitterTable is the order-code transmitter's program.
var orderedTransmitterTable = ioa.MustTable(ioa.Table[OrderedBetaTransmitter]{
	Name:     "t",
	Classify: (*OrderedBetaTransmitter).classify,
	Cmds: []ioa.Cmd[OrderedBetaTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *OrderedBetaTransmitter) bool { return t.bi < len(t.blocks) && t.c < t.burst },
			Act: func(t *OrderedBetaTransmitter) ioa.Action {
				return wire.Send{Dir: wire.TtoR, P: wire.DataPacket(t.blocks[t.bi][t.c])}
			},
			Eff: func(t *OrderedBetaTransmitter) {
				t.c++
				if t.c == t.burst && t.wait == 0 {
					t.c = 0
					t.bi++
				}
			},
		},
		{
			Name:  "wait_t",
			Class: ioa.ClassInternal,
			Pre:   func(t *OrderedBetaTransmitter) bool { return t.bi < len(t.blocks) && t.c >= t.burst },
			Act:   func(*OrderedBetaTransmitter) ioa.Action { return wire.Internal{Name: "wait_t"} },
			Eff: func(t *OrderedBetaTransmitter) {
				t.c++
				if t.c == t.burst+t.wait {
					t.c = 0
					t.bi++
				}
			},
		},
	},
})

func (t *OrderedBetaTransmitter) classify(a ioa.Action) ioa.Class {
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
func (t *OrderedBetaTransmitter) Name() string { return orderedTransmitterTable.Name }

// Classify places an action in the signature.
func (t *OrderedBetaTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *OrderedBetaTransmitter) NextLocal() (ioa.Action, bool) {
	return orderedTransmitterTable.NextLocal(t)
}

// Apply performs a transition.
func (t *OrderedBetaTransmitter) Apply(a ioa.Action) error {
	return orderedTransmitterTable.Apply(t, a)
}

// DeterministicIOA marks the automaton deterministic.
func (t *OrderedBetaTransmitter) DeterministicIOA() bool { return true }

// OrderedGain reports the payload advantage the ordered code would enjoy
// if order survived: OrderedBlockBits / multiset BlockBits for the same
// burst.
func OrderedGain(k, burst int) float64 {
	mb := multiset.BlockBits(k, burst)
	if mb == 0 {
		return 0
	}
	return float64(OrderedBlockBits(k, burst)) / float64(mb)
}
