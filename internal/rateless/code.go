// Package rateless implements the fountain-coded burst subsystem: an
// LT-style rateless code over a block's packet multiset, replacing
// exact-packet retransmission with an endless stream of coded symbols
// that the receiver cuts with a decode acknowledgement.
//
// A block is the same object the paper's burst protocols transmit: the
// multiset codec's ascending linearisation of δ1 k-ary symbols encoding
// ⌊log₂ μ_k(δ1)⌋ bits (internal/multiset). Where A^β retransmits the
// exact block for ⌈d/c1⌉ extra steps and A^γ waits a full round trip
// per burst, the rateless transmitter streams coded symbols — each a
// sum modulo k of a pseudo-random subset of the block's source symbols
// — until the receiver has decoded *any* sufficiently large subset and
// acks. Loss costs a few extra symbols instead of a round trip.
//
// Everything is deterministic: the neighbor set of coded symbol
// (block, index) is a pure function of a per-block seed derived from
// the session's base seed and the block number, so transmitter and
// receiver agree without carrying neighbor lists on the wire, and
// replays reproduce byte-identical symbol streams.
package rateless

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// prng is a splitmix64 stream: deterministic, allocation-free, and
// decoupled from math/rand so seeding is stable across Go releases.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix finalizes one splitmix64 step of x — used to fold identifiers
// into seeds.
func mix(x uint64) uint64 {
	p := prng{state: x}
	return p.next()
}

// BlockSeed derives the per-block seed from the session's base seed:
// every block gets an independent, reproducible symbol stream.
func BlockSeed(base int64, block uint32) uint64 {
	return mix(mix(uint64(base)) ^ uint64(block))
}

// Code is the deterministic LT code for one block: n source symbols
// over the k-ary alphabet, seeded so both ends derive identical
// neighbor sets from a coded symbol's index alone.
//
// The code is systematic: coded symbols with Index < n carry the
// source symbol at that position verbatim (degree 1), so a loss-free
// prefix of n symbols decodes immediately with zero overhead. Indexes
// ≥ n draw their degree from the ideal soliton distribution and their
// neighbors from the seeded stream.
type Code struct {
	k    int
	n    int
	seed uint64
}

// NewCode returns the code for one block. k is the packet alphabet
// size (≥ 2), n the number of source symbols per block (≥ 1).
func NewCode(k, n int, seed uint64) (*Code, error) {
	if k < 2 {
		return nil, fmt.Errorf("rateless: alphabet size k = %d, need k >= 2", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("rateless: block length n = %d, need n >= 1", n)
	}
	return &Code{k: k, n: n, seed: seed}, nil
}

// K returns the packet alphabet size.
func (c *Code) K() int { return c.k }

// N returns the number of source symbols per block.
func (c *Code) N() int { return c.n }

// Neighbors returns the source-symbol positions coded symbol index is
// the sum of. It is a pure function of (seed, index).
func (c *Code) Neighbors(index uint32) []int {
	return c.appendNeighbors(nil, index)
}

// appendNeighbors appends Neighbors(index) to dst: the encoder and the
// peeler walk a neighbour set in a buffer they own, allocating nothing.
func (c *Code) appendNeighbors(dst []int, index uint32) []int {
	if index < uint32(c.n) {
		return append(dst, int(index))
	}
	rng := prng{state: mix(c.seed ^ uint64(index))}
	deg := c.solitonDegree(&rng)
	// n is δ1-sized (single digits at the paper's defaults), so a
	// rejection loop beats shuffling machinery.
	start := len(dst)
	for len(dst)-start < deg {
		cand := int(rng.next() % uint64(c.n))
		dup := false
		for _, have := range dst[start:] {
			if have == cand {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, cand)
		}
	}
	return dst
}

// solitonDegree samples the ideal soliton distribution
// ρ(1) = 1/n, ρ(d) = 1/(d(d-1)) for 2 ≤ d ≤ n via the inverse CDF.
func (c *Code) solitonDegree(rng *prng) int {
	u := float64(rng.next()>>11) / (1 << 53) // uniform in [0, 1)
	if u < 1/float64(c.n) {
		return 1
	}
	d := int(math.Ceil(1 / u))
	if d < 1 {
		d = 1
	}
	if d > c.n {
		d = c.n
	}
	return d
}

// Encode returns the coded symbol at index for the given source block:
// the sum of the neighbor source symbols modulo k. The source slice
// must hold exactly n symbols in [0, k).
func (c *Code) Encode(src []wire.Symbol, index uint32) (wire.Symbol, error) {
	if len(src) != c.n {
		return 0, fmt.Errorf("rateless: block has %d source symbols, want %d", len(src), c.n)
	}
	for pos, s := range src {
		if int(s) < 0 || int(s) >= c.k {
			return 0, fmt.Errorf("rateless: source symbol %d at position %d outside alphabet [0,%d)", int(s), pos, c.k)
		}
	}
	return c.encode(src, index), nil
}

// encode is Encode without the per-call validation; the automata
// validate each block once at construction.
func (c *Code) encode(src []wire.Symbol, index uint32) wire.Symbol {
	var buf [stackDegree]int
	sum := 0
	for _, pos := range c.appendNeighbors(buf[:0], index) {
		sum += int(src[pos])
	}
	return wire.Symbol(sum % c.k)
}

// stackDegree is the neighbour-set size the encoder keeps on its stack;
// a larger degree (n > stackDegree) spills to the heap, correctly.
const stackDegree = 64

// seenWords caps the decoder's bitset of seen coded indexes at 64 Ki
// indexes (8 KiB); a block still undecoded past that many repair symbols
// records the rest in a map.
const seenWords = 1 << 10

// equation is one unresolved coded symbol: value = Σ src[neighbors] mod k,
// already reduced by every source symbol known at insertion time.
type equation struct {
	neighbors []int
	value     int
}

// found is one recovered source symbol awaiting propagation.
type found struct {
	pos   int
	value wire.Symbol
}

// Decoder peels one block's coded-symbol stream back into its source
// symbols. Add symbols in any order, with duplicates and reordering
// tolerated; Done reports completion and Source yields the block.
//
// Its buffers are kept across reset, so a receiver that recycles the
// decoder of a drained block decodes the next one without allocating.
type Decoder struct {
	code     Code
	src      []wire.Symbol
	have     []bool
	missing  int
	pending  []equation
	arena    []int           // backing store of pending equations' neighbours
	work     []found         // resolve's worklist
	seen     []uint64        // bitset of absorbed indexes below 64·seenWords
	seenFar  map[uint32]bool // absorbed indexes past the bitset
	received int
}

// NewDecoder returns a fresh decoder for one block of the given code.
func NewDecoder(code *Code) *Decoder {
	return &Decoder{
		code:    *code,
		src:     make([]wire.Symbol, code.n),
		have:    make([]bool, code.n),
		missing: code.n,
		seen:    make([]uint64, (code.n+63)/64),
	}
}

// reset readies the decoder for another block of the same k and n,
// keeping every buffer's capacity.
func (d *Decoder) reset(seed uint64) {
	d.code.seed = seed
	clear(d.have)
	d.missing = d.code.n
	d.pending = d.pending[:0]
	d.arena = d.arena[:0]
	clear(d.seen)
	d.seenFar = nil
	d.received = 0
}

// Received returns how many distinct coded symbols have been absorbed.
func (d *Decoder) Received() int { return d.received }

// Done reports whether every source symbol has been recovered.
func (d *Decoder) Done() bool { return d.missing == 0 }

// Source returns the recovered source block once Done; nil before.
func (d *Decoder) Source() []wire.Symbol {
	if !d.Done() {
		return nil
	}
	out := make([]wire.Symbol, len(d.src))
	copy(out, d.src)
	return out
}

// markSeen records index as absorbed and reports whether it already was.
func (d *Decoder) markSeen(index uint32) bool {
	w, bit := int(index/64), uint64(1)<<(index%64)
	if w >= seenWords {
		if d.seenFar[index] {
			return true
		}
		if d.seenFar == nil {
			d.seenFar = make(map[uint32]bool)
		}
		d.seenFar[index] = true
		return false
	}
	if w >= len(d.seen) {
		d.seen = append(d.seen, make([]uint64, w+1-len(d.seen))...)
	}
	if d.seen[w]&bit != 0 {
		return true
	}
	d.seen[w] |= bit
	return false
}

// Add absorbs coded symbol (index, value). Duplicate indexes are
// ignored; a value outside [0, k) is rejected as corruption. It
// returns whether the block became fully decoded by this symbol.
func (d *Decoder) Add(index uint32, value wire.Symbol) (bool, error) {
	if int(value) < 0 || int(value) >= d.code.k {
		return false, fmt.Errorf("rateless: coded value %d outside alphabet [0,%d)", int(value), d.code.k)
	}
	if d.Done() || d.markSeen(index) {
		return false, nil
	}
	d.received++

	// The neighbour set goes straight into the arena; the unknown
	// positions are compacted in place and stay there as the equation's
	// neighbours, or are truncated away if it resolves at once.
	start := len(d.arena)
	d.arena = d.code.appendNeighbors(d.arena, index)
	eq := equation{value: int(value)}
	unknown := d.arena[start:start]
	for _, pos := range d.arena[start:] {
		if d.have[pos] {
			eq.value = ((eq.value-int(d.src[pos]))%d.code.k + d.code.k) % d.code.k
		} else {
			unknown = append(unknown, pos)
		}
	}
	switch len(unknown) {
	case 0:
		// Fully redundant with what we already know; a mismatch would
		// mean a corrupt-but-checksummed symbol, which the wire layer
		// already screens out, so it is simply dropped.
		d.arena = d.arena[:start]
		return false, nil
	case 1:
		d.arena = d.arena[:start]
		d.resolve(unknown[0], wire.Symbol(eq.value))
		return d.Done(), nil
	default:
		d.arena = d.arena[:start+len(unknown)]
		eq.neighbors = unknown[:len(unknown):len(unknown)]
		d.pending = append(d.pending, eq)
		return false, nil
	}
}

// resolve records a recovered source symbol and peels it out of every
// pending equation, cascading through any equations that drop to
// degree one.
func (d *Decoder) resolve(pos int, value wire.Symbol) {
	// Iterative worklist: δ1-sized blocks keep it tiny, but no recursion.
	work := append(d.work[:0], found{pos, value})
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if d.have[f.pos] {
			continue
		}
		d.src[f.pos] = f.value
		d.have[f.pos] = true
		d.missing--

		kept := d.pending[:0]
		for _, eq := range d.pending {
			reduced := eq.neighbors[:0]
			for _, n := range eq.neighbors {
				if n == f.pos {
					eq.value = ((eq.value-int(f.value))%d.code.k + d.code.k) % d.code.k
				} else {
					reduced = append(reduced, n)
				}
			}
			eq.neighbors = reduced
			switch len(eq.neighbors) {
			case 0:
				// Redundant now; drop.
			case 1:
				if !d.have[eq.neighbors[0]] {
					work = append(work, found{eq.neighbors[0], wire.Symbol(eq.value)})
				}
			default:
				kept = append(kept, eq)
			}
		}
		d.pending = kept
	}
	d.work = work
}
