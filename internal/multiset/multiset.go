// Package multiset implements Section 3 of the paper: multisets over the
// universe {0, ..., k-1}, the counting functions μ_k(n) (multisets of size
// exactly n) and ζ_k(n) (multisets of size 1..n), linearisations
// toseq_k(n), and an explicit bijection tomulti_k(n) between binary blocks
// of ⌊log2 μ_k(n)⌋ bits and multisets of size n.
//
// The bijection is what makes the paper's protocols immune to in-burst
// packet reordering: a burst of n k-ary packets is decoded from the
// *multiset* of received symbols, so arrival order is irrelevant.
package multiset

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/wire"
)

// Multiset is a multiset over the universe {0, ..., k-1}, represented by
// its multiplicity vector.
type Multiset struct {
	counts []int
	size   int
}

// New returns the empty multiset over a universe of k symbols.
func New(k int) Multiset {
	return Multiset{counts: make([]int, k)}
}

// FromSeq returns the multiset of the symbols in seq over a universe of k
// symbols. It returns an error if any symbol is outside {0, ..., k-1}.
func FromSeq(k int, seq []wire.Symbol) (Multiset, error) {
	m := New(k)
	for _, s := range seq {
		if err := m.Add(s); err != nil {
			return Multiset{}, err
		}
	}
	return m, nil
}

// FromCounts returns the multiset with the given multiplicity vector
// (copied). The universe size is len(counts).
func FromCounts(counts []int) (Multiset, error) {
	m := Multiset{counts: make([]int, len(counts))}
	for i, c := range counts {
		if c < 0 {
			return Multiset{}, fmt.Errorf("multiset: negative multiplicity %d for symbol %d", c, i)
		}
		m.counts[i] = c
		m.size += c
	}
	return m, nil
}

// K returns the universe size.
func (m Multiset) K() int { return len(m.counts) }

// Size returns the number of elements, counted with multiplicity.
func (m Multiset) Size() int { return m.size }

// Mult returns the multiplicity of symbol s — the paper's mult(u, Q).
func (m Multiset) Mult(s wire.Symbol) int {
	if int(s) < 0 || int(s) >= len(m.counts) {
		return 0
	}
	return m.counts[s]
}

// Add inserts one occurrence of s — the paper's Q ∪ {u}.
func (m *Multiset) Add(s wire.Symbol) error {
	if int(s) < 0 || int(s) >= len(m.counts) {
		return fmt.Errorf("multiset: symbol %d outside universe of size %d", int(s), len(m.counts))
	}
	m.counts[s]++
	m.size++
	return nil
}

// Remove deletes one occurrence of s; it is an error if s is absent.
func (m *Multiset) Remove(s wire.Symbol) error {
	if m.Mult(s) == 0 {
		return fmt.Errorf("multiset: symbol %d not present", int(s))
	}
	m.counts[s]--
	m.size--
	return nil
}

// Clear empties the multiset in place.
func (m *Multiset) Clear() {
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.size = 0
}

// Clone returns an independent copy.
func (m Multiset) Clone() Multiset {
	c := Multiset{counts: make([]int, len(m.counts)), size: m.size}
	copy(c.counts, m.counts)
	return c
}

// Counts returns a copy of the multiplicity vector.
func (m Multiset) Counts() []int {
	out := make([]int, len(m.counts))
	copy(out, m.counts)
	return out
}

// Equal reports whether m and other have the same universe and the same
// multiplicities.
func (m Multiset) Equal(other Multiset) bool {
	if len(m.counts) != len(other.counts) || m.size != other.size {
		return false
	}
	for i := range m.counts {
		if m.counts[i] != other.counts[i] {
			return false
		}
	}
	return true
}

// SubmultisetOf reports whether m ⊑ other: every multiplicity of m is at
// most the corresponding multiplicity of other. Universes must match.
func (m Multiset) SubmultisetOf(other Multiset) bool {
	if len(m.counts) != len(other.counts) {
		return false
	}
	for i := range m.counts {
		if m.counts[i] > other.counts[i] {
			return false
		}
	}
	return true
}

// ToSeq returns the ascending linearisation of m — one realisation of the
// paper's toseq_k(n) map: a sequence containing mult(j, m) occurrences of
// each symbol j.
func (m Multiset) ToSeq() []wire.Symbol {
	return m.appendSeq(make([]wire.Symbol, 0, m.size))
}

// appendSeq appends the ascending linearisation of m to dst.
func (m Multiset) appendSeq(dst []wire.Symbol) []wire.Symbol {
	for s, c := range m.counts {
		for i := 0; i < c; i++ {
			dst = append(dst, wire.Symbol(s))
		}
	}
	return dst
}

// String renders the multiset as a sorted bag, e.g. "{0,0,3}".
func (m Multiset) String() string {
	seq := m.ToSeq()
	parts := make([]string, len(seq))
	for i, s := range seq {
		parts[i] = fmt.Sprintf("%d", int(s))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Key returns a canonical comparable key for use as a map key, so that
// profile machinery (Section 5) can compare multiset sequences cheaply.
func (m Multiset) Key() string {
	var b strings.Builder
	for i, c := range m.counts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// SortSymbols sorts a symbol slice ascending in place; convenience for
// tests comparing linearisations.
func SortSymbols(seq []wire.Symbol) {
	sort.Slice(seq, func(i, j int) bool { return seq[i] < seq[j] })
}
