package rstp

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/multiset"
	"repro/internal/wire"
)

// A^β(k) — the r-passive solution of Section 6.1, Figure 3.
//
// Execution proceeds in rounds. Each round the transmitter sends a burst
// of δ1 packets encoding ⌊log2 μ_k(δ1)⌋ input bits as a *multiset* of
// k-ary symbols (tomulti/toseq of Section 3), then waits ⌈d/c1⌉ idle steps
// so the burst is fully delivered before the next burst's first packet can
// arrive. The receiver accumulates δ1 packets into a multiset, decodes,
// and writes the block's bits.
//
// Effort ≤ (δ1 + ⌈d/c1⌉)·c2 / ⌊log2 μ_k(δ1)⌋ = 2δ1c2/⌊log2 μ_k(δ1)⌋ when
// c1 | d — a constant factor above the Theorem 5.3 lower bound.

// BetaTransmitter is A^β(k)'s transmitter At^β(k).
type BetaTransmitter struct {
	syms   []wire.Symbol // every round's burst of δ1 symbols, back to back
	blocks int           // number of rounds
	bi     int           // current block index
	c      int           // position within the round (paper's c)
	burst  int           // δ1
	wait   int           // ⌈d/c1⌉ idle steps per round
	bits   int           // input bits per block
	sends  []ioa.Action  // shared pre-boxed send of each symbol
}

var _ ioa.Deterministic = (*BetaTransmitter)(nil)

// NewBetaTransmitter builds At^β(k) for input x, which must be a multiple
// of BetaBlockBits(p, k) bits long (use PadToBlock and frame above —
// the paper assumes |X| ≡ 0 mod ⌊log μ_k(δ1)⌋).
func NewBetaTransmitter(p Params, k int, x []wire.Bit) (*BetaTransmitter, error) {
	codec, err := betaCodec(p, k)
	if err != nil {
		return nil, err
	}
	return newBetaTransmitter(p, codec, x)
}

// newBetaTransmitter builds At^β(k) over an already validated codec for
// (k, δ1).
func newBetaTransmitter(p Params, codec *multiset.Codec, x []wire.Bit) (*BetaTransmitter, error) {
	bits := codec.BlockBits()
	if len(x)%bits != 0 {
		return nil, fmt.Errorf("rstp: beta transmitter: |X| = %d is not a multiple of the block size %d", len(x), bits)
	}
	syms, err := encodeBlocks(codec, x)
	if err != nil {
		return nil, fmt.Errorf("rstp: beta transmitter: %w", err)
	}
	return &BetaTransmitter{
		syms:   syms,
		blocks: len(x) / bits,
		burst:  p.Delta1(),
		wait:   p.CeilSteps1(),
		bits:   bits,
		sends:  DataSends(codec.K()),
	}, nil
}

// betaTransmitterTable is At^β(k)'s program (Figure 3).
var betaTransmitterTable = ioa.MustTable(ioa.Table[BetaTransmitter]{
	Name:     TransmitterName,
	Classify: (*BetaTransmitter).classify,
	Cmds: []ioa.Cmd[BetaTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *BetaTransmitter) bool { return t.bi < t.blocks && t.c < t.burst },
			Act:   func(t *BetaTransmitter) ioa.Action { return t.sends[t.syms[t.bi*t.burst+t.c]] },
			Eff:   func(t *BetaTransmitter) { t.c++ },
		},
		{
			Name:  "wait_t",
			Class: ioa.ClassInternal,
			Pre:   func(t *BetaTransmitter) bool { return t.bi < t.blocks && t.c >= t.burst },
			Act:   func(*BetaTransmitter) ioa.Action { return WaitT },
			Eff: func(t *BetaTransmitter) {
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
func (t *BetaTransmitter) Fork() (*BetaTransmitter, error) {
	c := *t
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (t *BetaTransmitter) Snapshot() string { return fmt.Sprintf("bi=%d c=%d", t.bi, t.c) }

func betaCodec(p Params, k int) (*multiset.Codec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("rstp: beta needs a packet alphabet of size k >= 2, got %d", k)
	}
	return multiset.NewCodec(k, p.Delta1())
}

// encodeBlocks encodes x block by block (tomulti then toseq) into one
// flat symbol sequence: len(x)/BlockBits bursts of N symbols each.
func encodeBlocks(codec *multiset.Codec, x []wire.Bit) ([]wire.Symbol, error) {
	bits := codec.BlockBits()
	syms := make([]wire.Symbol, 0, len(x)/bits*codec.N())
	for off := 0; off < len(x); off += bits {
		var err error
		if syms, err = codec.AppendEncodeSeq(syms, x[off:off+bits]); err != nil {
			return nil, fmt.Errorf("block at bit %d: %w", off, err)
		}
	}
	return syms, nil
}

// BetaBlockBits returns ⌊log2 μ_k(δ1)⌋, the number of input bits A^β(k)
// transmits per round.
func BetaBlockBits(p Params, k int) int {
	return multiset.BlockBits(k, p.Delta1())
}

func (t *BetaTransmitter) classify(a ioa.Action) ioa.Class {
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
func (t *BetaTransmitter) Name() string { return betaTransmitterTable.Name }

// Classify places an action in the signature.
func (t *BetaTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *BetaTransmitter) NextLocal() (ioa.Action, bool) { return betaTransmitterTable.NextLocal(t) }

// Apply performs a transition.
func (t *BetaTransmitter) Apply(a ioa.Action) error { return betaTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *BetaTransmitter) DeterministicIOA() bool { return true }

// Done reports whether every block has been sent and waited out.
func (t *BetaTransmitter) Done() bool { return t.bi >= t.blocks }

// Burst returns the burst size δ1.
func (t *BetaTransmitter) Burst() int { return t.burst }

// BetaReceiver is A^β(k)'s receiver Ar^β(k): it accumulates each burst
// into the multiset A, decodes when |A| = δ1, and writes the bits.
type BetaReceiver struct {
	codec *multiset.Codec
	burst int
	a     multiset.Multiset // current burst's multiset (paper's A)
	queue []wire.Bit        // decoded bits awaiting write (paper's y array)
	next  int               // next bit to write (paper's k)
	k     int               // alphabet size
}

var _ ioa.Deterministic = (*BetaReceiver)(nil)

// NewBetaReceiver builds Ar^β(k).
func NewBetaReceiver(p Params, k int) (*BetaReceiver, error) {
	codec, err := betaCodec(p, k)
	if err != nil {
		return nil, err
	}
	return newBetaReceiver(codec), nil
}

// newBetaReceiver builds Ar^β(k) over a codec for (k, δ1).
func newBetaReceiver(codec *multiset.Codec) *BetaReceiver {
	return &BetaReceiver{
		codec: codec,
		burst: codec.N(),
		a:     multiset.New(codec.K()),
		k:     codec.K(),
	}
}

// betaReceiverTable is Ar^β(k)'s program (Figure 3).
var betaReceiverTable = ioa.MustTable(ioa.Table[BetaReceiver]{
	Name:     ReceiverName,
	Classify: (*BetaReceiver).classify,
	OnInput:  (*BetaReceiver).onInput,
	Cmds: []ioa.Cmd[BetaReceiver]{
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *BetaReceiver) bool { return r.next < len(r.queue) },
			Act:   func(r *BetaReceiver) ioa.Action { return WriteAction(r.queue[r.next]) },
			Eff:   func(r *BetaReceiver) { r.next++ },
		},
		IdleRCmd[BetaReceiver](),
	},
})

// Fork returns an independent copy in the same state, for state-space
// exploration: it copies the burst multiset and the decoded queue and
// shares the immutable codec.
func (r *BetaReceiver) Fork() (*BetaReceiver, error) {
	c := *r
	c.a = r.a.Clone()
	c.queue = append([]wire.Bit(nil), r.queue...)
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state.
func (r *BetaReceiver) Snapshot() string {
	return fmt.Sprintf("A=%s q=%s next=%d", r.a.Key(), wire.BitsToString(r.queue), r.next)
}

// WrittenBits returns Y: the bits written so far, in order.
func (r *BetaReceiver) WrittenBits() []wire.Bit {
	return append([]wire.Bit(nil), r.queue[:r.next]...)
}

func (r *BetaReceiver) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Recv:
		// The input alphabet is exactly P^tr = {0, ..., k-1}: packets
		// outside it are not in this automaton's signature.
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

func (r *BetaReceiver) onInput(act ioa.Action) error {
	recv, ok := act.(wire.Recv)
	if !ok {
		return fmt.Errorf("rstp: beta receiver: unexpected input %v: %w", act, ioa.ErrNotInSignature)
	}
	if err := r.a.Add(recv.P.Symbol); err != nil {
		return fmt.Errorf("rstp: beta receiver: %w", err)
	}
	if r.a.Size() == r.burst {
		q, err := r.codec.AppendDecode(r.queue, r.a)
		if err != nil {
			return fmt.Errorf("rstp: beta receiver: decode burst: %w", err)
		}
		r.queue = q
		r.a.Clear()
	}
	return nil
}

// Name returns "r".
func (r *BetaReceiver) Name() string { return betaReceiverTable.Name }

// Classify places an action in the signature.
func (r *BetaReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *BetaReceiver) NextLocal() (ioa.Action, bool) { return betaReceiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *BetaReceiver) Apply(a ioa.Action) error { return betaReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *BetaReceiver) DeterministicIOA() bool { return true }

// Written returns the number of bits written.
func (r *BetaReceiver) Written() int { return r.next }

// PendingBurst returns the number of packets accumulated toward the
// current burst — useful in tests of burst separation.
func (r *BetaReceiver) PendingBurst() int { return r.a.Size() }
