package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It sorts xs in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so -compare's spreads match ones computed with
// Python. It sorts xs in place; with fewer than two values it returns the
// one value (or zero) three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// gapCounts is an exact histogram of integer tick gaps. Gaps at or above
// its size share the last cell; at 50µs ticks that is a gap of over 3s.
type gapCounts struct {
	counts []int64
	n      int64
}

const maxGap = 1 << 16

func (g *gapCounts) add(gap int64) {
	if g.counts == nil {
		g.counts = make([]int64, maxGap)
	}
	if gap < 0 {
		gap = 0
	}
	if gap >= maxGap {
		gap = maxGap - 1
	}
	g.counts[gap]++
	g.n++
}

// quantile treats each integer gap k as the class [k-0.5, k+0.5) and
// interpolates inside the class holding rank q·n — the grouped-data
// percentile. Tick gaps are whole numbers, so a plain order statistic
// would read the same integer on every run; the interpolated value
// moves with the share of samples on either side of it.
func (g *gapCounts) quantile(q float64) float64 {
	if g.n == 0 {
		return 0
	}
	rank := q * float64(g.n)
	var below int64
	for k, c := range g.counts {
		if c == 0 {
			continue
		}
		if float64(below+c) >= rank {
			return float64(k) - 0.5 + (rank-float64(below))/float64(c)
		}
		below += c
	}
	return float64(len(g.counts) - 1)
}

// hist is a concurrent log-linear histogram of non-negative samples:
// exact below 16, then 16 cells per power of two (at most 1/16 relative
// width). record is lock-free and allocation-free, so the traced run can
// call it on every step of every endpoint.
type hist struct {
	cells [64 * 16]atomic.Int64
	n     atomic.Int64
}

func histCell(v int64) int {
	if v < 16 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 5
	return (e+1)*16 + int((v>>e)&15)
}

// cellBounds returns the half-open value range [lo, hi) of cell i.
func cellBounds(i int) (lo, hi float64) {
	if i < 16 {
		return float64(i), float64(i + 1)
	}
	e := i/16 - 1
	sub := int64(i % 16)
	l := (16 + sub) << e
	return float64(l), float64(l + 1<<e)
}

func (h *hist) record(v int64) {
	h.cells[histCell(v)].Add(1)
	h.n.Add(1)
}

func (h *hist) count() int64 { return h.n.Load() }

// quantile interpolates linearly inside the cell holding rank q·n.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var below int64
	for i := range h.cells {
		c := h.cells[i].Load()
		if c == 0 {
			continue
		}
		if float64(below+c) >= rank {
			lo, hi := cellBounds(i)
			return lo + (hi-lo)*(rank-float64(below))/float64(c)
		}
		below += c
	}
	lo, _ := cellBounds(len(h.cells) - 1)
	return lo
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite maps NaN and ±Inf to 0: JSON has no encoding for them.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
