package rateless

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"repro/internal/ioa"
	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/wire"
)

// decodeWindow bounds how far ahead of the first undecoded block the
// receiver will open decoders. The transmitter's systematic pass streams
// blocks in order and its repair cursor never runs ahead of the highest
// unacked block, so legitimate traffic stays far inside this; a block
// number past the window is a corrupted record that slipped the
// checksum, and is dropped like any other corruption.
const decodeWindow = 1 << 16

// Options configures a rateless protocol pair or Builder.
type Options struct {
	// Params are the RSTP timing constants (c1 <= c2 < d).
	Params rstp.Params
	// K is the packet alphabet size, >= 2; the multiset block geometry
	// is the same ⌊log₂ μ_k(δ1)⌋ bits per δ1 symbols as A^β(k).
	K int
	// Seed is the session's base seed; block b's symbol stream is a pure
	// function of BlockSeed(Seed, b) on both ends, so replays under the
	// same seed reproduce byte-identical coded streams.
	Seed int64
	// Obs, when non-nil, receives the rstp_rateless_* counters and the
	// symbols-per-block histogram.
	Obs *obs.Registry
}

// Builder constructs rateless transmitter/receiver pairs and satisfies
// session.PairBuilder, making the subsystem selectable wherever the
// hardened β/γ builders are.
type Builder struct {
	p    rstp.Params
	k    int
	seed int64

	codec *multiset.Codec
	met   *metrics

	// decoders recycles drained blocks' decoders across every receiver
	// the builder spawns: a session opens most of its blocks' decoders
	// at once, so reuse within one receiver would save little.
	decoders sync.Pool
}

// NewBuilder validates the options and returns a pair builder. All pairs
// it spawns share one metrics bridge, so per-session counters aggregate
// on the registry exactly like the serving layer's own.
func NewBuilder(o Options) (*Builder, error) {
	if err := o.Params.Validate(); err != nil {
		return nil, err
	}
	if o.K < 2 {
		return nil, fmt.Errorf("rateless: need a packet alphabet of size k >= 2, got %d", o.K)
	}
	codec, err := multiset.NewCodec(o.K, o.Params.Delta1())
	if err != nil {
		return nil, fmt.Errorf("rateless: %w", err)
	}
	if codec.BlockBits() < 1 {
		return nil, fmt.Errorf("rateless: k=%d δ1=%d encodes zero bits per block", o.K, o.Params.Delta1())
	}
	return &Builder{
		p:     o.Params,
		k:     o.K,
		seed:  o.Seed,
		codec: codec,
		met:   newMetrics(o.Obs),
	}, nil
}

// String names the protocol stack, e.g. "rateless(k=4)".
func (b *Builder) String() string { return fmt.Sprintf("rateless(k=%d)", b.k) }

// BlockBits returns ⌊log₂ μ_k(δ1)⌋, the input bits per coded block.
func (b *Builder) BlockBits() int { return b.codec.BlockBits() }

// NewPair builds a transmitter/receiver pair for input x, which must be
// a multiple of BlockBits bits long (PadToBlock and frame above, as with
// A^β(k)).
func (b *Builder) NewPair(x []wire.Bit) (t, r ioa.Automaton, err error) {
	tx, err := newTransmitter(b, x)
	if err != nil {
		return nil, nil, err
	}
	rx, err := newReceiver(b)
	if err != nil {
		return nil, nil, err
	}
	return tx, rx, nil
}

// NewTransmitter builds a standalone rateless transmitter for input x.
func NewTransmitter(o Options, x []wire.Bit) (*Transmitter, error) {
	b, err := NewBuilder(o)
	if err != nil {
		return nil, err
	}
	return newTransmitter(b, x)
}

// NewReceiver builds a standalone rateless receiver.
func NewReceiver(o Options) (*Receiver, error) {
	b, err := NewBuilder(o)
	if err != nil {
		return nil, err
	}
	return newReceiver(b)
}

// UpperBound returns the subsystem's loss-free effort: δ1·c2 ticks of
// sending per ⌊log₂ μ_k(δ1)⌋-bit block. The systematic prefix decodes a
// clean channel's block from exactly its n = δ1 source symbols and the
// transmitter never waits between bursts (block identity rides in each
// record), so — unlike A^β(k)'s (δ1 + ⌈d/c1⌉)·c2 round — there is no
// inter-burst idle term. Under loss the realized effort exceeds this by
// the coding overhead (a few symbols per block) plus the repair symbols
// sent while one ack round trip is in flight: the transmitter repairs
// every block no ack has reported decoded yet, so that term is what
// selective acks shrink but cannot remove. That is the trade the
// subsystem makes, and E25 and E31 measure it.
func UpperBound(p rstp.Params, k int) float64 {
	bits := multiset.BlockBits(k, p.Delta1())
	if bits <= 0 {
		return math.Inf(1)
	}
	return float64(int64(p.Delta1())*p.C2) / float64(bits)
}

// LowerBound returns the matching lower bound. The receiver talks back
// (decode acks), so the protocol is active in the paper's taxonomy and
// Theorem 5.6 applies.
func LowerBound(p rstp.Params, k int) float64 {
	return rstp.ActiveLowerBound(p, k)
}

// Transmitter streams fountain-coded symbols: one systematic pass over
// every block in order (indexes 0..n-1 verbatim, so a loss-free channel
// decodes with zero overhead), then a round-robin repair phase cycling
// fresh coded indexes over the unacked suffix until the receiver's
// cumulative decode ack cuts the stream. Both passes skip a block that
// an ack's selective mask reported decoded, except the frontier block
// (the first unacked one), so what the transmitter still sends in one ack
// round trip is repair of blocks the receiver may truly lack. It never
// waits between blocks — the (block, index) identity in each record
// replaces A^β's burst-delimiting idle steps.
type Transmitter struct {
	met *metrics

	k, n  int
	syms  []wire.Symbol // every block's n source symbols, back to back
	codes []Code        // per-block seeded codes

	acked    uint32   // blocks [0, acked) are decode-acknowledged; only advances
	sysBlock uint32   // systematic pass: current block (== nb when the pass is over)
	sysIdx   uint32   // systematic pass: next index within sysBlock
	cursor   uint32   // repair phase: round-robin position in [acked, nb)
	nextIdx  []uint32 // repair phase: next fresh coded index per block, | sacked once a mask reported it decoded

	// arena holds the coded records sent so far (arenaRecords per
	// backing array); each new symbol's payload is a substring of it.
	arena recordArena

	// sent memoizes the boxed send of coded symbol (sentBlock, sentIdx),
	// which is a pure function of that pair: the table calls Act in both
	// NextLocal and Apply, and the second call reuses the first's box.
	sent               ioa.Action
	sentBlock, sentIdx uint32
}

var _ ioa.Deterministic = (*Transmitter)(nil)

const (
	// sacked flags a block in nextIdx that an ack's mask reported
	// decoded. A block's index would need 2³¹ sends to reach it.
	sacked = 1 << 31
	// arenaRecords is the number of coded records one transmitter
	// arena holds.
	arenaRecords = 64
	// ackArenaRecords is the number of ack records one receiver arena
	// holds. A receiver sends about one new ack per decoded block, so
	// one arena covers a short session.
	ackArenaRecords = 16
)

// recordArena hands out payload strings as substrings of one
// strings.Builder, so a new record costs no allocation of its own. When
// the builder is full it is replaced by a fresh one grown for the given
// number of records. Records already handed out stay immutable, so
// payloads still in flight keep their bytes.
type recordArena struct{ b strings.Builder }

// add appends rec and returns it as a substring of the arena, growing a
// fresh backing array for records records of rec's length when full.
func (a *recordArena) add(rec []byte, records int) string {
	if a.b.Cap()-a.b.Len() < len(rec) {
		a.b.Reset()
		a.b.Grow(records * len(rec))
	}
	a.b.Write(rec)
	all := a.b.String()
	return all[len(all)-len(rec):]
}

func newTransmitter(b *Builder, x []wire.Bit) (*Transmitter, error) {
	bits := b.codec.BlockBits()
	if len(x)%bits != 0 {
		return nil, fmt.Errorf("rateless: |X| = %d is not a multiple of the block size %d", len(x), bits)
	}
	n := b.p.Delta1()
	nb := len(x) / bits
	syms := make([]wire.Symbol, 0, nb*n)
	codes := make([]Code, 0, nb)
	nextIdx := make([]uint32, nb)
	for bi := 0; bi < nb; bi++ {
		var err error
		if syms, err = b.codec.AppendEncodeSeq(syms, x[bi*bits:(bi+1)*bits]); err != nil {
			return nil, fmt.Errorf("rateless: block %d: %w", bi, err)
		}
		// NewBuilder validated k, and n = δ1 >= 1.
		codes = append(codes, Code{k: b.k, n: n, seed: BlockSeed(b.seed, uint32(bi))})
		nextIdx[bi] = uint32(n) // repair indexes start past the systematic prefix
	}
	return &Transmitter{
		met:     b.met,
		k:       b.k,
		n:       n,
		syms:    syms,
		codes:   codes,
		nextIdx: nextIdx,
	}, nil
}

func (t *Transmitter) nb() uint32 { return uint32(len(t.codes)) }

// pick returns the (block, index) of the coded symbol the send command
// emits in the current state — a pure function of the state, as Act
// requires.
func (t *Transmitter) pick() (block, index uint32) {
	if t.sysBlock < t.nb() {
		return t.sysBlock, t.sysIdx
	}
	return t.cursor, t.nextIdx[t.cursor] &^ sacked
}

// sendAction returns the boxed send of the coded symbol pick chooses,
// building it only when the pair differs from the memoized one. The
// record is encoded on the stack and its payload is taken from the
// arena, so a new symbol allocates only its box.
func (t *Transmitter) sendAction() ioa.Action {
	b, idx := t.pick()
	if t.sent != nil && t.sentBlock == b && t.sentIdx == idx {
		return t.sent
	}
	cs := wire.CodedSymbol{Block: b, Index: idx, Value: t.codes[b].encode(t.syms[int(b)*t.n:int(b+1)*t.n], idx)}
	var rec [wire.CodedSymbolLen]byte
	t.sent = wire.Send{
		Dir:     wire.TtoR,
		P:       wire.CodedPacket(cs),
		Payload: t.arena.add(wire.AppendCodedSymbol(rec[:0], cs), arenaRecords),
	}
	t.sentBlock, t.sentIdx = b, idx
	return t.sent
}

// advance moves past the just-sent symbol.
func (t *Transmitter) advance() {
	if t.sysBlock < t.nb() {
		t.sysIdx++
		if t.sysIdx == uint32(t.n) {
			t.sysBlock++
			t.sysIdx = 0
		}
		t.normalize()
		return
	}
	t.nextIdx[t.cursor]++
	t.cursor++
	t.normalize()
}

// skip reports whether the transmitter passes over block b: a mask
// reported it decoded and it is not the frontier block acked. The
// frontier is always sent, so a stale mask bit (from a receiver that
// restarted and lost the block) can slow its repair but never stall it.
func (t *Transmitter) skip(b uint32) bool {
	return b != t.acked && t.nextIdx[b]&sacked != 0
}

// normalize restores the cursor invariants after an ack or an advance:
// the systematic pass never revisits an acked block, the repair cursor
// stays inside the unacked suffix [acked, nb), and neither rests on a
// skipped block. Every flagged block lies within 64 of acked (a mask
// reaches 64 blocks past its Next, and no Next exceeds acked), so each
// walk is short.
func (t *Transmitter) normalize() {
	nb := t.nb()
	if t.sysBlock < t.acked {
		t.sysBlock, t.sysIdx = t.acked, 0
	}
	for t.sysBlock < nb && t.skip(t.sysBlock) {
		t.sysBlock, t.sysIdx = t.sysBlock+1, 0
	}
	if t.sysBlock < nb {
		return
	}
	if t.cursor < t.acked || t.cursor >= nb {
		t.cursor = t.acked
	}
	for t.cursor < nb && t.skip(t.cursor) {
		if t.cursor++; t.cursor == nb {
			t.cursor = t.acked
		}
	}
}

// transmitterTable is the transmitter's program: one command, sending
// the next coded symbol until every block is acked.
var transmitterTable = ioa.MustTable(ioa.Table[Transmitter]{
	Name:     rstp.TransmitterName,
	Classify: (*Transmitter).classify,
	OnInput:  (*Transmitter).onInput,
	Cmds: []ioa.Cmd[Transmitter]{
		{
			Name:  "send_coded",
			Class: ioa.ClassOutput,
			Pre:   func(t *Transmitter) bool { return t.acked < t.nb() },
			Act:   (*Transmitter).sendAction,
			Eff: func(t *Transmitter) {
				t.advance()
				t.met.onSymbolSent()
			},
		},
	},
})

func (t *Transmitter) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Send:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Coded {
			return ioa.ClassOutput
		}
	case wire.Recv:
		if act.Dir == wire.RtoT && act.P.Kind == wire.DecodeAck {
			return ioa.ClassInput
		}
	}
	return ioa.ClassNone
}

func (t *Transmitter) onInput(act ioa.Action) error {
	recv, ok := act.(wire.Recv)
	if !ok {
		return fmt.Errorf("rateless: transmitter: unexpected input %v: %w", act, ioa.ErrNotInSignature)
	}
	ack, err := wire.ParseDecodeAck([]byte(recv.Payload))
	if err != nil || wire.Symbol(ack.Next) != recv.P.Symbol {
		// A corrupted record that still parsed as a frame: dropping it is
		// safe — acks are cumulative and the stale-symbol re-ack resends.
		t.met.onCorrupt()
		return nil
	}
	if next := min(ack.Next, t.nb()); next > t.acked {
		t.acked = next
	}
	// A reordered or stale ack's mask is still true of the incarnation
	// that sent it, so its bits are kept; they only order the repairs.
	for m := ack.Mask; m != 0; m &= m - 1 {
		b := uint64(ack.Next) + 1 + uint64(bits.TrailingZeros64(m))
		if b >= uint64(t.nb()) {
			break
		}
		t.nextIdx[b] |= sacked
	}
	t.normalize()
	return nil
}

// Name returns "t".
func (t *Transmitter) Name() string { return transmitterTable.Name }

// Classify places an action in the signature.
func (t *Transmitter) Classify(a ioa.Action) ioa.Class { return t.classify(a) }

// NextLocal returns the unique enabled local action; none once every
// block is acked (the quiesced transmitter keeps serving inputs).
func (t *Transmitter) NextLocal() (ioa.Action, bool) { return transmitterTable.NextLocal(t) }

// Apply performs a transition.
func (t *Transmitter) Apply(a ioa.Action) error { return transmitterTable.Apply(t, a) }

// DeterministicIOA marks the automaton deterministic.
func (t *Transmitter) DeterministicIOA() bool { return true }

// Done reports whether every block has been decode-acknowledged.
func (t *Transmitter) Done() bool { return t.acked >= t.nb() }

// Acked returns the number of decode-acknowledged blocks.
func (t *Transmitter) Acked() uint32 { return t.acked }

// Receiver peels the coded stream back into blocks, writes each decoded
// block's bits in order, and cuts the transmitter's stream with a
// cumulative decode ack whose mask names the blocks past the frontier it
// has decoded too. Every decode arms an ack, and a symbol for an
// already-decoded block the ack can name (below the frontier or within
// the mask) triggers a re-ack, which heals lost acks without timers.
type Receiver struct {
	met   *metrics
	codec *multiset.Codec
	pool  *sync.Pool // the builder's recycled decoders

	k, n int
	seed int64

	next       uint32              // first undecoded block
	mask       uint64              // bit i: block next+1+i is decoded, awaiting the frontier
	decs       map[uint32]*Decoder // open decoders for blocks >= next
	block      multiset.Multiset   // the drained block's symbols, for the codec
	queue      []wire.Bit          // decoded bits awaiting write
	wnext      int                 // next bit to write
	skip       int64               // resume: bits of block `next` already on the durable tape
	pendingAck bool

	// ack memoizes the boxed ack of (ackNext, ackMask), as the
	// transmitter memoizes its sends; its payload comes from ackArena.
	ack      ioa.Action
	ackNext  uint32
	ackMask  uint64
	ackArena recordArena
}

var _ ioa.Deterministic = (*Receiver)(nil)

func newReceiver(b *Builder) (*Receiver, error) {
	return &Receiver{
		met:   b.met,
		codec: b.codec,
		pool:  &b.decoders,
		k:     b.k,
		n:     b.p.Delta1(),
		seed:  b.seed,
		decs:  make(map[uint32]*Decoder),
		block: multiset.New(b.k),
	}, nil
}

// receiverTable is the receiver's program. Priority: pending writes beat
// the ack (the real-time obligation is delivery; an ack delayed a few
// steps only costs the transmitter a handful of stale repair symbols),
// and both beat the idle step.
var receiverTable = ioa.MustTable(ioa.Table[Receiver]{
	Name:     rstp.ReceiverName,
	Classify: (*Receiver).classify,
	OnInput:  (*Receiver).onInput,
	Cmds: []ioa.Cmd[Receiver]{
		{
			Name:  "write",
			Class: ioa.ClassOutput,
			Pre:   func(r *Receiver) bool { return r.wnext < len(r.queue) },
			Act:   func(r *Receiver) ioa.Action { return rstp.WriteAction(r.queue[r.wnext]) },
			Eff:   func(r *Receiver) { r.wnext++ },
		},
		{
			Name:  "send_ack",
			Class: ioa.ClassOutput,
			Pre:   func(r *Receiver) bool { return r.pendingAck },
			Act:   (*Receiver).ackAction,
			Eff: func(r *Receiver) {
				r.pendingAck = false
				r.met.onAckSent()
			},
		},
		rstp.IdleRCmd[Receiver](),
	},
})

// ackAction returns the boxed ack of (r.next, r.mask), built only when
// either differs from the memoized ack's. Its payload is a substring of
// the receiver's ack arena, so a new ack allocates only its box.
func (r *Receiver) ackAction() ioa.Action {
	if r.ack != nil && r.ackNext == r.next && r.ackMask == r.mask {
		return r.ack
	}
	ack := wire.DecodeAckMsg{Next: r.next, Mask: r.mask}
	var rec [wire.DecodeAckLen]byte
	r.ack = wire.Send{
		Dir:     wire.RtoT,
		P:       wire.DecodeAckPacket(ack),
		Payload: r.ackArena.add(wire.AppendDecodeAck(rec[:0], ack), ackArenaRecords),
	}
	r.ackNext, r.ackMask = r.next, r.mask
	return r.ack
}

func (r *Receiver) classify(a ioa.Action) ioa.Class {
	switch act := a.(type) {
	case wire.Recv:
		if act.Dir == wire.TtoR && act.P.Kind == wire.Coded {
			return ioa.ClassInput
		}
	case wire.Write:
		return ioa.ClassOutput
	case wire.Send:
		if act.Dir == wire.RtoT && act.P.Kind == wire.DecodeAck {
			return ioa.ClassOutput
		}
	case wire.Internal:
		if act.Name == "idle_r" {
			return ioa.ClassInternal
		}
	}
	return ioa.ClassNone
}

func (r *Receiver) onInput(act ioa.Action) error {
	recv, ok := act.(wire.Recv)
	if !ok {
		return fmt.Errorf("rateless: receiver: unexpected input %v: %w", act, ioa.ErrNotInSignature)
	}
	cs, err := wire.ParseCodedSymbol([]byte(recv.Payload))
	if err != nil {
		r.met.onCorrupt()
		return nil
	}
	// The frame header duplicates the record's value and block; a
	// mismatch means the header was corrupted after encoding (a fault
	// plan flips header symbols) even though the checksummed
	// payload survived. Either copy being untrustworthy, drop the symbol
	// — the code is rateless, another one is always coming.
	if cs.Value != recv.P.Symbol || int(cs.Block) != recv.P.Tag {
		r.met.onCorrupt()
		return nil
	}
	if cs.Block < r.next {
		// The transmitter is still repairing a block we finished: its ack
		// was lost or is in flight. Re-ack instead of decoding.
		r.met.onStale()
		r.pendingAck = true
		return nil
	}
	if cs.Block >= r.next+decodeWindow {
		r.met.onCorrupt()
		return nil
	}
	dec := r.decs[cs.Block]
	if dec == nil {
		dec = r.openDecoder(cs.Block)
		r.decs[cs.Block] = dec
	} else if dec.Done() {
		// Decoded past the frontier, and the transmitter has not heard
		// (its ack is lost or in flight): re-ack, as below next. A block
		// beyond the mask's reach would get back the ack the transmitter
		// already has, so its symbol is absorbed without a reply.
		if cs.Block-r.next <= 64 {
			r.met.onStale()
			r.pendingAck = true
		}
		return nil
	}
	before := dec.Received()
	done, err := dec.Add(cs.Index, cs.Value)
	if err != nil {
		r.met.onCorrupt()
		return nil
	}
	if dec.Received() > before {
		r.met.onSymbolReceived()
	}
	if done {
		r.met.onBlockDecoded(dec.Received())
		r.pendingAck = true
		if d := cs.Block - r.next - 1; cs.Block > r.next && d < 64 {
			r.mask |= 1 << d
		}
	}
	return r.drain()
}

// openDecoder returns a decoder for block b, recycling a drained one
// when the pool has one.
func (r *Receiver) openDecoder(b uint32) *Decoder {
	seed := BlockSeed(r.seed, b)
	if dec, ok := r.pool.Get().(*Decoder); ok {
		dec.reset(seed)
		return dec
	}
	// NewBuilder validated k, and n = δ1 >= 1.
	return NewDecoder(&Code{k: r.k, n: r.n, seed: seed})
}

// drain consumes consecutively decoded blocks starting at next, queueing
// their bits for the write command, and shifts the mask along with the
// frontier. The caller has already armed the ack: only a decode moves it.
func (r *Receiver) drain() error {
	for {
		dec := r.decs[r.next]
		if dec == nil || !dec.Done() {
			break
		}
		r.block.Clear()
		for _, s := range dec.src {
			if err := r.block.Add(s); err != nil {
				return fmt.Errorf("rateless: receiver: block %d: %w", r.next, err)
			}
		}
		head := len(r.queue)
		q, err := r.codec.AppendDecode(r.queue, r.block)
		if err != nil {
			// Unreachable with checksummed symbols: the decoder's output
			// is the transmitter's EncodeSeq, always a codeword.
			return fmt.Errorf("rateless: receiver: block %d: %w", r.next, err)
		}
		r.queue = q
		if r.skip > 0 {
			// Resume: the head of this block is already on the durable
			// tape from a previous incarnation; only the tail is new.
			drop := int(min(r.skip, int64(len(q)-head)))
			r.queue = append(q[:head], q[head+drop:]...)
			r.skip = 0
		}
		delete(r.decs, r.next)
		r.pool.Put(dec)
		r.next++
		// Bit i now names block next+1+i; the block that enters the mask
		// at bit 63 may have decoded while out of its reach.
		r.mask >>= 1
		if dec := r.decs[r.next+64]; dec != nil && dec.Done() {
			r.mask |= 1 << 63
		}
	}
	return nil
}

// ResumeTape implements session.TapeResumer: a restarted receiver whose
// previous incarnation durably wrote n bits starts at the block holding
// bit n, skips the bits of it already on the tape, and immediately acks
// so the restarted transmitter fast-forwards past the decoded prefix.
func (r *Receiver) ResumeTape(n int64) {
	bits := int64(r.codec.BlockBits())
	r.next = uint32(n / bits)
	r.mask = 0
	r.skip = n % bits
	if n > 0 {
		r.pendingAck = true
	}
}

// Name returns "r".
func (r *Receiver) Name() string { return receiverTable.Name }

// Classify places an action in the signature.
func (r *Receiver) Classify(a ioa.Action) ioa.Class { return r.classify(a) }

// NextLocal returns the unique enabled local action.
func (r *Receiver) NextLocal() (ioa.Action, bool) { return receiverTable.NextLocal(r) }

// Apply performs a transition.
func (r *Receiver) Apply(a ioa.Action) error { return receiverTable.Apply(r, a) }

// DeterministicIOA marks the automaton deterministic.
func (r *Receiver) DeterministicIOA() bool { return true }

// Written returns the number of bits written.
func (r *Receiver) Written() int { return r.wnext }

// NextBlock returns the first undecoded block — the value the next ack
// carries.
func (r *Receiver) NextBlock() uint32 { return r.next }

// WrittenBits returns Y: the bits written so far, in order.
func (r *Receiver) WrittenBits() []wire.Bit {
	return append([]wire.Bit(nil), r.queue[:r.wnext]...)
}
