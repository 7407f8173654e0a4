package rstp

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/multiset"
	"repro/internal/wire"
)

// A^γ(k) — the active solution of Section 6.2, Figure 4 (the protocol idea
// is credited to Richard Beigel).
//
// The transmitter sends bursts of δ2 = ⌊d/c2⌋ packets (each burst encoding
// ⌊log2 μ_k(δ2)⌋ bits as a multiset) and then waits until it has received
// δ2 acknowledgements before starting the next burst. The receiver
// acknowledges every data packet with the single packet "ack"
// (|P^rt| = 1).
//
// Safety is ack-clocked rather than time-clocked: burst m+1 cannot start
// before every burst-m packet was received (each ack follows its recv),
// so bursts never interleave even if the channel violates the delay
// bound — only performance depends on d. Effort ≤ (3d + c2)/⌊log2 μ_k(δ2)⌋.

// GammaTransmitter is A^γ(k)'s transmitter At^γ(k).
type GammaTransmitter struct {
	syms   []wire.Symbol // every burst's δ2 symbols, back to back
	blocks int           // number of bursts
	bi     int           // current block
	c      int           // packets sent in the current block (paper's c)
	a      int           // acks received in the current block (paper's a)
	burst  int           // δ2
	bits   int
	sends  []ioa.Action // shared pre-boxed send of each symbol
}

var _ ioa.Deterministic = (*GammaTransmitter)(nil)

// NewGammaTransmitter builds At^γ(k) for input x, which must be a multiple
// of GammaBlockBits(p, k) bits long.
func NewGammaTransmitter(p Params, k int, x []wire.Bit) (*GammaTransmitter, error) {
	codec, err := gammaCodec(p, k)
	if err != nil {
		return nil, err
	}
	return newGammaTransmitter(codec, x)
}

// newGammaTransmitter builds At^γ(k) over an already validated codec for
// (k, δ2).
func newGammaTransmitter(codec *multiset.Codec, x []wire.Bit) (*GammaTransmitter, error) {
	bits := codec.BlockBits()
	if len(x)%bits != 0 {
		return nil, fmt.Errorf("rstp: gamma transmitter: |X| = %d is not a multiple of the block size %d", len(x), bits)
	}
	syms, err := encodeBlocks(codec, x)
	if err != nil {
		return nil, fmt.Errorf("rstp: gamma transmitter: %w", err)
	}
	return &GammaTransmitter{
		syms:   syms,
		blocks: len(x) / bits,
		burst:  codec.N(),
		bits:   bits,
		sends:  DataSends(codec.K()),
	}, nil
}

// gammaTransmitterTable is At^γ(k)'s program (Figure 4).
var gammaTransmitterTable = ioa.MustTable(ioa.Table[GammaTransmitter]{
	Name:     TransmitterName,
	Classify: (*GammaTransmitter).classify,
	OnInput:  (*GammaTransmitter).onInput,
	Cmds: []ioa.Cmd[GammaTransmitter]{
		{
			Name:  "send",
			Class: ioa.ClassOutput,
			Pre:   func(t *GammaTransmitter) bool { return t.bi < t.blocks && t.c < t.burst },
			Act:   func(t *GammaTransmitter) ioa.Action { return t.sends[t.syms[t.bi*t.burst+t.c]] },
			Eff:   func(t *GammaTransmitter) { t.c++ },
		},
		{
			Name:  "idle_t",
			Class: ioa.ClassInternal,
			Pre:   func(t *GammaTransmitter) bool { return t.bi < t.blocks && t.c == t.burst },
			Act:   func(*GammaTransmitter) ioa.Action { return actIdleT },
			Eff:   func(*GammaTransmitter) {},
		},
	},
})

// Fork returns an independent copy in the same state, for exhaustive
// state-space exploration (internal/mc). The immutable encoded blocks are
// shared.
func (t *GammaTransmitter) Fork() (*GammaTransmitter, error) {
	c := *t
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state, for state-space
// memoisation.
func (t *GammaTransmitter) Snapshot() string {
	return fmt.Sprintf("bi=%d c=%d a=%d", t.bi, t.c, t.a)
}

func gammaCodec(p Params, k int) (*multiset.Codec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("rstp: gamma needs a packet alphabet of size k >= 2, got %d", k)
	}
	return multiset.NewCodec(k, p.Delta2())
}

// GammaBlockBits returns ⌊log2 μ_k(δ2)⌋, the bits A^γ(k) transmits per
// burst.
func GammaBlockBits(p Params, k int) int {
	return multiset.BlockBits(k, p.Delta2())
}

func (t *GammaTransmitter) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Send:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Data {
			return ioa.ClassOutput
		}
	case wire.Recv:
		if act.Dir == wire.RtoT && act.P.Kind == wire.Ack {
			return ioa.ClassInput
		}
	case wire.Internal:
		if act.Name == "idle_t" {
			return ioa.ClassInternal
		}
	}
	return ioa.ClassNone
}

func (t *GammaTransmitter) onInput(act ioa.Action) error {
	if _, ok := act.(wire.Recv); !ok {
		return fmt.Errorf("rstp: gamma transmitter: unexpected input %v: %w", act, ioa.ErrNotInSignature)
	}
	t.a++
	if t.a == t.burst {
		t.a = 0
		t.c = 0
		t.bi++
	}
	return nil
}

// Name returns "t".
func (t *GammaTransmitter) Name() string { return gammaTransmitterTable.Name }

// Classify places an action in the signature.
func (t *GammaTransmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action.
func (t *GammaTransmitter) NextLocal() (ioa.Action, bool) { return gammaTransmitterTable.NextLocal(t) }

// Apply performs a transition.
func (t *GammaTransmitter) Apply(a ioa.Action) error { return gammaTransmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *GammaTransmitter) DeterministicIOA() bool { return true }

// Done reports whether every block has been sent and fully acknowledged.
func (t *GammaTransmitter) Done() bool { return t.bi >= t.blocks }

// Burst returns the burst size δ2.
func (t *GammaTransmitter) Burst() int { return t.burst }

// GammaReceiver is A^γ(k)'s receiver Ar^γ(k). Figure 4 leaves the order of
// its simultaneously enabled send(ack) and write actions open; we fix the
// deterministic priority send(ack) > write > idle (acknowledging first
// keeps the transmitter's pipeline moving).
type GammaReceiver struct {
	codec *multiset.Codec
	burst int
	k     int
	a     multiset.Multiset
	j     int // unacknowledged packets (paper's j)
	queue []wire.Bit
	next  int
}

var _ ioa.Deterministic = (*GammaReceiver)(nil)

// NewGammaReceiver builds Ar^γ(k).
func NewGammaReceiver(p Params, k int) (*GammaReceiver, error) {
	codec, err := gammaCodec(p, k)
	if err != nil {
		return nil, err
	}
	return newGammaReceiver(codec), nil
}

// newGammaReceiver builds Ar^γ(k) over a codec for (k, δ2).
func newGammaReceiver(codec *multiset.Codec) *GammaReceiver {
	return &GammaReceiver{
		codec: codec,
		burst: codec.N(),
		k:     codec.K(),
		a:     multiset.New(codec.K()),
	}
}

// gammaReceiverTable is Ar^γ(k)'s program (Figure 4), with the priority
// send(ack) > write > idle.
var gammaReceiverTable = ioa.MustTable(ioa.Table[GammaReceiver]{
	Name:     ReceiverName,
	Classify: (*GammaReceiver).classify,
	OnInput:  (*GammaReceiver).onInput,
	Cmds: []ioa.Cmd[GammaReceiver]{
		{
			Name:  "send_ack",
			Class: ioa.ClassOutput,
			Pre:   func(r *GammaReceiver) bool { return r.j > 0 },
			Act:   func(*GammaReceiver) ioa.Action { return actAckRT },
			Eff:   func(r *GammaReceiver) { r.j-- },
		},
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *GammaReceiver) bool { return r.next < len(r.queue) },
			Act:   func(r *GammaReceiver) ioa.Action { return WriteAction(r.queue[r.next]) },
			Eff:   func(r *GammaReceiver) { r.next++ },
		},
		IdleRCmd[GammaReceiver](),
	},
})

// Fork returns an independent copy in the same state, for exhaustive
// state-space exploration (internal/mc): it copies the burst multiset and
// the decoded queue and shares the immutable codec.
func (r *GammaReceiver) Fork() (*GammaReceiver, error) {
	c := *r
	c.a = r.a.Clone()
	c.queue = append([]wire.Bit(nil), r.queue...)
	return &c, nil
}

// Snapshot returns a canonical key of the mutable state, for state-space
// memoisation.
func (r *GammaReceiver) Snapshot() string {
	return fmt.Sprintf("A=%s j=%d q=%s next=%d", r.a.Key(), r.j, wire.BitsToString(r.queue), r.next)
}

// WrittenBits returns Y: the bits written so far, in order.
func (r *GammaReceiver) WrittenBits() []wire.Bit {
	return append([]wire.Bit(nil), r.queue[:r.next]...)
}

func (r *GammaReceiver) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Recv:
		// The input alphabet is exactly P^tr = {0, ..., k-1}.
		if act.Dir == wire.TtoR && act.P.Kind == wire.Data &&
			act.P.Symbol >= 0 && int(act.P.Symbol) < r.k {
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

func (r *GammaReceiver) onInput(act ioa.Action) error {
	recv, ok := act.(wire.Recv)
	if !ok {
		return fmt.Errorf("rstp: gamma receiver: unexpected input %v: %w", act, ioa.ErrNotInSignature)
	}
	r.j++
	if err := r.a.Add(recv.P.Symbol); err != nil {
		return fmt.Errorf("rstp: gamma receiver: %w", err)
	}
	if r.a.Size() == r.burst {
		q, err := r.codec.AppendDecode(r.queue, r.a)
		if err != nil {
			return fmt.Errorf("rstp: gamma receiver: decode burst: %w", err)
		}
		r.queue = q
		r.a.Clear()
	}
	return nil
}

// Name returns "r".
func (r *GammaReceiver) Name() string { return gammaReceiverTable.Name }

// Classify places an action in the signature.
func (r *GammaReceiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *GammaReceiver) NextLocal() (ioa.Action, bool) { return gammaReceiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *GammaReceiver) Apply(a ioa.Action) error { return gammaReceiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *GammaReceiver) DeterministicIOA() bool { return true }

// Written returns the number of bits written.
func (r *GammaReceiver) Written() int { return r.next }

// Unacked returns the number of packets not yet acknowledged.
func (r *GammaReceiver) Unacked() int { return r.j }
