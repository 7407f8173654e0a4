package rstpx

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/multiset"
	"repro/internal/rstp"
	"repro/internal/wire"
)

// GenBeta is the generalised r-passive burst protocol: bursts of Burst
// k-ary packets encoding ⌊log2 μ_k(Burst)⌋ bits as a multiset, separated
// by WaitSteps idle steps — just enough to cover the reordering slack
// d2 - d1 rather than all of d2. With a deterministic-delay channel
// (d1 = d2) the wait vanishes entirely and the transmitter streams bursts
// back to back.
//
// The burst size is a free parameter of the generalised protocol
// (correctness never depends on it); DefaultBurst picks the
// paper-analogous value.

// DefaultBurst returns the paper-analogous burst size: the reordering
// window w*, but never smaller than the generalised δ1 when there is no
// slack advantage to exploit. Concretely: max(w*, 1) when slack > 0
// matches the paper's δ1 at d1 = 0, and a small constant burst (8) when
// the channel is deterministic, to amortise per-burst overhead.
func DefaultBurst(p GenParams) int {
	if p.Validate() != nil {
		return 1 // invalid parameters fail properly in the constructor
	}
	if p.Slack() <= 0 {
		return 8
	}
	b := p.GenDelta1()
	if w := p.WindowSteps(); w > b {
		b = w
	}
	if b < 1 {
		b = 1
	}
	return b
}

// GenBetaBlockBits returns ⌊log2 μ_k(burst)⌋ for the generalised protocol.
func GenBetaBlockBits(k, burst int) int { return multiset.BlockBits(k, burst) }

// GenBetaTransmitter is the generalised burst transmitter.
type GenBetaTransmitter struct {
	syms   []wire.Symbol // every block's burst, back to back
	blocks int
	bi     int
	c      int
	burst  int
	wait   int
	sends  []ioa.Action // shared pre-boxed send of each symbol
}

var _ ioa.Deterministic = (*GenBetaTransmitter)(nil)

// NewGenBetaTransmitter builds the transmitter for input x with the given
// burst size; len(x) must be a multiple of GenBetaBlockBits(k, burst).
func NewGenBetaTransmitter(p GenParams, k, burst int, x []wire.Bit) (*GenBetaTransmitter, error) {
	codec, err := genCodec(p, k, burst)
	if err != nil {
		return nil, err
	}
	bits := codec.BlockBits()
	if len(x)%bits != 0 {
		return nil, fmt.Errorf("rstpx: |X| = %d not a multiple of block size %d", len(x), bits)
	}
	syms := make([]wire.Symbol, 0, len(x)/bits*burst)
	for off := 0; off < len(x); off += bits {
		if syms, err = codec.AppendEncodeSeq(syms, x[off:off+bits]); err != nil {
			return nil, fmt.Errorf("rstpx: block at bit %d: %w", off, err)
		}
	}
	return &GenBetaTransmitter{
		syms:   syms,
		blocks: len(x) / bits,
		burst:  burst,
		wait:   p.WaitSteps(),
		sends:  rstp.DataSends(k),
	}, nil
}

// genBetaTransmitterTable is the generalised burst transmitter's program.
var genBetaTransmitterTable = ioa.MustTable(ioa.Table[GenBetaTransmitter]{
	Name:     "t",
	Classify: (*GenBetaTransmitter).classify,
	Cmds: []ioa.Cmd[GenBetaTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *GenBetaTransmitter) bool { return t.bi < t.blocks && t.c < t.burst },
			Act:   func(t *GenBetaTransmitter) ioa.Action { return t.sends[t.syms[t.bi*t.burst+t.c]] },
			Eff: func(t *GenBetaTransmitter) {
				t.c++
				// No wait configured: roll straight into the next block.
				if t.c == t.burst && t.wait == 0 {
					t.c = 0
					t.bi++
				}
			},
		},
		{
			Name:  "wait_t",
			Class: ioa.ClassInternal,
			Pre:   func(t *GenBetaTransmitter) bool { return t.bi < t.blocks && t.c >= t.burst },
			Act:   func(*GenBetaTransmitter) ioa.Action { return rstp.WaitT },
			Eff: func(t *GenBetaTransmitter) {
				t.c++
				if t.c == t.burst+t.wait {
					t.c = 0
					t.bi++
				}
			},
		},
	},
})

// Fork returns an independent copy in the same state, for state-space
// exploration. The immutable encoded blocks are shared.
func (t *GenBetaTransmitter) Fork() (*GenBetaTransmitter, error) {
	c := *t
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (t *GenBetaTransmitter) Snapshot() string { return fmt.Sprintf("bi=%d c=%d", t.bi, t.c) }

func genCodec(p GenParams, k, burst int) (*multiset.Codec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("rstpx: need k >= 2, got %d", k)
	}
	if burst < 1 {
		return nil, fmt.Errorf("rstpx: need burst >= 1, got %d", burst)
	}
	return multiset.NewCodec(k, burst)
}

func (t *GenBetaTransmitter) classify(a ioa.Action) ioa.Class {
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
func (t *GenBetaTransmitter) Name() string { return genBetaTransmitterTable.Name }

// Classify places an action in the signature.
func (t *GenBetaTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *GenBetaTransmitter) NextLocal() (ioa.Action, bool) {
	return genBetaTransmitterTable.NextLocal(t)
}

// Apply performs a transition.
func (t *GenBetaTransmitter) Apply(a ioa.Action) error { return genBetaTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *GenBetaTransmitter) DeterministicIOA() bool { return true }

// Done reports whether every block is sent and waited out.
func (t *GenBetaTransmitter) Done() bool { return t.bi >= t.blocks }

// GenBetaReceiver is the generalised burst receiver; identical decoding
// logic, parameterised burst.
type GenBetaReceiver struct {
	codec *multiset.Codec
	burst int
	k     int
	a     multiset.Multiset
	queue []wire.Bit
	next  int
}

var _ ioa.Deterministic = (*GenBetaReceiver)(nil)

// NewGenBetaReceiver builds the receiver.
func NewGenBetaReceiver(p GenParams, k, burst int) (*GenBetaReceiver, error) {
	codec, err := genCodec(p, k, burst)
	if err != nil {
		return nil, err
	}
	return &GenBetaReceiver{
		codec: codec,
		burst: burst,
		k:     k,
		a:     multiset.New(k),
	}, nil
}

// genBetaReceiverTable is the generalised burst receiver's program.
var genBetaReceiverTable = ioa.MustTable(ioa.Table[GenBetaReceiver]{
	Name:     "r",
	Classify: (*GenBetaReceiver).classify,
	OnInput:  (*GenBetaReceiver).onInput,
	Cmds: []ioa.Cmd[GenBetaReceiver]{
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *GenBetaReceiver) bool { return r.next < len(r.queue) },
			Act:   func(r *GenBetaReceiver) ioa.Action { return rstp.WriteAction(r.queue[r.next]) },
			Eff:   func(r *GenBetaReceiver) { r.next++ },
		},
		rstp.IdleRCmd[GenBetaReceiver](),
	},
})

// Fork returns an independent copy in the same state, for state-space
// exploration: it copies the burst multiset and the decoded queue and
// shares the immutable codec.
func (r *GenBetaReceiver) Fork() (*GenBetaReceiver, error) {
	c := *r
	c.a = r.a.Clone()
	c.queue = append([]wire.Bit(nil), r.queue...)
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (r *GenBetaReceiver) Snapshot() string {
	return fmt.Sprintf("A=%s q=%s next=%d", r.a.Key(), wire.BitsToString(r.queue), r.next)
}

// WrittenBits returns Y: the bits written so far, in order.
func (r *GenBetaReceiver) WrittenBits() []wire.Bit {
	return append([]wire.Bit(nil), r.queue[:r.next]...)
}

func (r *GenBetaReceiver) classify(a ioa.Action) ioa.Class {
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

func (r *GenBetaReceiver) onInput(act ioa.Action) error {
	recv, ok := act.(wire.Recv)
	if !ok {
		return fmt.Errorf("rstpx: receiver: unexpected input %v: %w", act, ioa.ErrNotInSignature)
	}
	if err := r.a.Add(recv.P.Symbol); err != nil {
		return fmt.Errorf("rstpx: receiver: %w", err)
	}
	if r.a.Size() == r.burst {
		q, err := r.codec.AppendDecode(r.queue, r.a)
		if err != nil {
			return fmt.Errorf("rstpx: receiver: decode burst: %w", err)
		}
		r.queue = q
		r.a.Clear()
	}
	return nil
}

// Name returns "r".
func (r *GenBetaReceiver) Name() string { return genBetaReceiverTable.Name }

// Classify places an action in the signature.
func (r *GenBetaReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *GenBetaReceiver) NextLocal() (ioa.Action, bool) { return genBetaReceiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *GenBetaReceiver) Apply(a ioa.Action) error { return genBetaReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *GenBetaReceiver) DeterministicIOA() bool { return true }

// Written returns the number of bits written.
func (r *GenBetaReceiver) Written() int { return r.next }
