package multiset

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/wire"
)

// Codec realises the paper's maps for fixed k and n:
//
//	tomulti_k(n): {0,1}^⌊log2 μ_k(n)⌋ → multisets of size n over k symbols
//	toseq_k(n):   multisets of size n → sequences (the multiset's ToSeq)
//
// via an explicit combinatorial ranking of multisets of size exactly n.
// Rank order: multisets are blocked by the multiplicity of symbol 0
// (ascending), then recursively by the remaining symbols; the rank of a
// multiset is its index in that order, in [0, μ_k(n)).
//
// Encode maps a block of ⌊log2 μ_k(n)⌋ bits (MSB first) to the multiset
// with that rank; Decode inverts it. Since 2^⌊log2 μ⌋ <= μ_k(n), every
// block has a multiset, and Decode rejects multisets whose rank falls
// outside the encodable range (which only happens on corrupted input).
//
// When every μ value the codec needs fits a uint64 (every served
// configuration does), ranks are computed in uint64 with no allocation;
// math/big is used only for the experiments' large tables.
//
// Like the paper's maps, a codec is one fixed map per (k, n): NewCodec
// builds the μ table and block constants once per (k, n) and every codec
// for that shape shares them. Codecs are immutable and safe for
// concurrent use.
type Codec struct {
	k, n  int
	bits  int
	table *Table
	fast  bool     // all needed μ values fit uint64
	limit *big.Int // 2^bits
}

type codecKey struct{ k, n int }

// codecs memoises buildCodec: codecKey → *Codec. The memoised codecs are
// never handed out, only copied, so no caller can change another's.
var (
	codecsMu sync.Mutex
	codecs   = map[codecKey]*Codec{}
)

// NewCodec returns a codec for multisets of size n over k symbols. It
// requires k >= 2 and n >= 1 so that at least one bit can be encoded.
// The table is built on the first call for (k, n) and shared after that:
// a later call costs one small allocation. Errors are not cached.
func NewCodec(k, n int) (*Codec, error) {
	codecsMu.Lock()
	defer codecsMu.Unlock()
	shared := codecs[codecKey{k, n}]
	if shared == nil {
		var err error
		if shared, err = buildCodec(k, n); err != nil {
			return nil, err
		}
		codecs[codecKey{k, n}] = shared
	}
	c := *shared
	return &c, nil
}

func buildCodec(k, n int) (*Codec, error) {
	if k < 2 {
		return nil, fmt.Errorf("multiset: codec needs k >= 2, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("multiset: codec needs n >= 1, got %d", n)
	}
	table, err := NewTable(k, n)
	if err != nil {
		return nil, err
	}
	bits := table.Mu(k, n).BitLen() - 1
	if bits < 1 {
		return nil, fmt.Errorf("multiset: μ_%d(%d) = %v encodes no bits", k, n, table.Mu(k, n))
	}
	return &Codec{
		k:     k,
		n:     n,
		bits:  bits,
		table: table,
		fast:  table.AllFit64(k, n),
		limit: new(big.Int).Lsh(big.NewInt(1), uint(bits)),
	}, nil
}

// K returns the universe size.
func (c *Codec) K() int { return c.k }

// N returns the multiset (burst) size.
func (c *Codec) N() int { return c.n }

// BlockBits returns ⌊log2 μ_k(n)⌋, the number of bits per block.
func (c *Codec) BlockBits() int { return c.bits }

// Mu returns μ_k(n) for this codec's parameters.
func (c *Codec) Mu() *big.Int { return new(big.Int).Set(c.table.Mu(c.k, c.n)) }

// checkShape rejects a multiset that is not of size n over k symbols.
func (c *Codec) checkShape(m Multiset) error {
	if m.K() != c.k || m.Size() != c.n {
		return fmt.Errorf("multiset: rank wants a multiset of size %d over %d symbols, got size %d over %d", c.n, c.k, m.Size(), m.K())
	}
	return nil
}

// Rank returns the index of m in the codec's multiset order. m must have
// universe k and size n.
func (c *Codec) Rank(m Multiset) (*big.Int, error) {
	if err := c.checkShape(m); err != nil {
		return nil, err
	}
	if c.fast {
		return new(big.Int).SetUint64(c.rank64(m)), nil
	}
	rank := new(big.Int)
	rest := c.n
	for j := 0; j < c.k-1; j++ {
		left := c.k - j // universe size still in play
		cnt := m.counts[j]
		for cc := 0; cc < cnt; cc++ {
			rank.Add(rank, c.table.Mu(left-1, rest-cc))
		}
		rest -= cnt
	}
	return rank, nil
}

// Unrank returns the multiset with the given rank in [0, μ_k(n)).
func (c *Codec) Unrank(rank *big.Int) (Multiset, error) {
	if rank.Sign() < 0 || rank.Cmp(c.table.Mu(c.k, c.n)) >= 0 {
		return Multiset{}, fmt.Errorf("multiset: rank %v outside [0, μ_%d(%d) = %v)", rank, c.k, c.n, c.table.Mu(c.k, c.n))
	}
	if c.fast {
		return FromSeq(c.k, c.appendSeq64(make([]wire.Symbol, 0, c.n), rank.Uint64()))
	}
	r := new(big.Int).Set(rank)
	counts := make([]int, c.k)
	rest := c.n
	for j := 0; j < c.k-1; j++ {
		left := c.k - j
		cnt := 0
		for {
			w := c.table.Mu(left-1, rest-cnt)
			if r.Cmp(w) < 0 {
				break
			}
			r.Sub(r, w)
			cnt++
		}
		counts[j] = cnt
		rest -= cnt
	}
	counts[c.k-1] = rest
	return FromCounts(counts)
}

// rank64 is Rank in uint64 for a multiset of the codec's shape; it needs
// c.fast. Every partial sum is below μ_k(n), so nothing overflows.
func (c *Codec) rank64(m Multiset) uint64 {
	var rank uint64
	rest := c.n
	for j := 0; j < c.k-1; j++ {
		w := c.table.mu64[c.k-j-1] // μ over the universe still in play, less symbol j
		cnt := m.counts[j]
		for cc := 0; cc < cnt; cc++ {
			rank += w[rest-cc]
		}
		rest -= cnt
	}
	return rank
}

// appendSeq64 appends the ascending linearisation of the multiset of rank
// r < μ_k(n) to dst: Unrank followed by ToSeq, in uint64 and with no
// temporary. It needs c.fast.
func (c *Codec) appendSeq64(dst []wire.Symbol, r uint64) []wire.Symbol {
	rest := c.n
	for j := 0; j < c.k-1; j++ {
		w := c.table.mu64[c.k-j-1]
		for r >= w[rest] {
			r -= w[rest]
			rest--
			dst = append(dst, wire.Symbol(j))
		}
	}
	for ; rest > 0; rest-- {
		dst = append(dst, wire.Symbol(c.k-1))
	}
	return dst
}

// blockRank64 checks a block's length and bits and returns its value,
// MSB first: the rank Encode gives it. It needs c.fast (so bits < 64).
func (c *Codec) blockRank64(block []wire.Bit) (uint64, error) {
	if len(block) != c.bits {
		return 0, fmt.Errorf("multiset: encode wants %d bits, got %d", c.bits, len(block))
	}
	var rank uint64
	for _, b := range block {
		if !b.Valid() {
			return 0, fmt.Errorf("multiset: encode: invalid bit %d", b)
		}
		rank = rank<<1 | uint64(b)
	}
	return rank, nil
}

// Encode maps a block of exactly BlockBits bits (MSB first) to a multiset
// of size n — the paper's tomulti_k(n).
func (c *Codec) Encode(block []wire.Bit) (Multiset, error) {
	if c.fast {
		seq, err := c.AppendEncodeSeq(make([]wire.Symbol, 0, c.n), block)
		if err != nil {
			return Multiset{}, err
		}
		return FromSeq(c.k, seq)
	}
	if len(block) != c.bits {
		return Multiset{}, fmt.Errorf("multiset: encode wants %d bits, got %d", c.bits, len(block))
	}
	rank := new(big.Int)
	for _, b := range block {
		if !b.Valid() {
			return Multiset{}, fmt.Errorf("multiset: encode: invalid bit %d", b)
		}
		rank.Lsh(rank, 1)
		if b == wire.One {
			rank.SetBit(rank, 0, 1)
		}
	}
	return c.Unrank(rank)
}

// EncodeSeq is Encode followed by the ascending linearisation toseq_k(n):
// it returns the n symbols the transmitter actually sends for the block.
func (c *Codec) EncodeSeq(block []wire.Bit) ([]wire.Symbol, error) {
	seq, err := c.AppendEncodeSeq(make([]wire.Symbol, 0, c.n), block)
	if err != nil {
		return nil, err
	}
	return seq, nil
}

// AppendEncodeSeq appends EncodeSeq(block) to dst and returns the
// extended slice; on error dst is returned unchanged. On the uint64 path
// it allocates nothing beyond dst's growth.
func (c *Codec) AppendEncodeSeq(dst []wire.Symbol, block []wire.Bit) ([]wire.Symbol, error) {
	if !c.fast {
		m, err := c.Encode(block)
		if err != nil {
			return dst, err
		}
		return m.appendSeq(dst), nil
	}
	rank, err := c.blockRank64(block)
	if err != nil {
		return dst, err
	}
	return c.appendSeq64(dst, rank), nil
}

// Decode inverts Encode: it returns the BlockBits-bit block whose rank is
// the multiset's rank. It rejects multisets of the wrong shape and
// multisets whose rank is >= 2^BlockBits (unencodable, so necessarily
// corrupted).
func (c *Codec) Decode(m Multiset) ([]wire.Bit, error) {
	block, err := c.AppendDecode(make([]wire.Bit, 0, c.bits), m)
	if err != nil {
		return nil, err
	}
	return block, nil
}

// AppendDecode appends Decode(m) to dst and returns the extended slice;
// on error dst is returned unchanged. On the uint64 path it allocates
// nothing beyond dst's growth.
func (c *Codec) AppendDecode(dst []wire.Bit, m Multiset) ([]wire.Bit, error) {
	if !c.fast {
		rank, err := c.Rank(m)
		if err != nil {
			return dst, err
		}
		if rank.Cmp(c.limit) >= 0 {
			return dst, fmt.Errorf("multiset: decode: multiset %v has rank %v >= 2^%d (not a codeword)", m, rank, c.bits)
		}
		for i := c.bits - 1; i >= 0; i-- {
			dst = append(dst, wire.Bit(rank.Bit(i)))
		}
		return dst, nil
	}
	if err := c.checkShape(m); err != nil {
		return dst, err
	}
	rank := c.rank64(m)
	if rank >= 1<<c.bits {
		return dst, fmt.Errorf("multiset: decode: multiset %v has rank %v >= 2^%d (not a codeword)", m, rank, c.bits)
	}
	for i := c.bits - 1; i >= 0; i-- {
		dst = append(dst, wire.Bit(rank>>i&1))
	}
	return dst, nil
}

// DecodeSeq builds the multiset of seq and decodes it; seq's order is
// irrelevant, which is the whole point of the construction.
func (c *Codec) DecodeSeq(seq []wire.Symbol) ([]wire.Bit, error) {
	m, err := FromSeq(c.k, seq)
	if err != nil {
		return nil, err
	}
	return c.Decode(m)
}
