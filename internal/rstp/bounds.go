package rstp

import (
	"math"
	"sort"

	"repro/internal/multiset"
)

// Bound formulas from Sections 5 and 6, in ticks per message. All bounds
// are reported as float64; the underlying counting is exact (math/big).

// AlphaEffort returns the effort of A^α: ⌈d/c1⌉ · c2 ticks per message
// (= δ1·c2 = d·c2/c1 when c1 | d, the value stated after Figure 1).
func AlphaEffort(p Params) float64 {
	return float64(int64(p.CeilSteps1()) * p.C2)
}

// PassiveLowerBound returns Theorem 5.3's bound on every r-passive
// solution with |P^tr| = k:
//
//	eff >= δ1·c2 / log2 ζ_k(δ1).
func PassiveLowerBound(p Params, k int) float64 {
	d1 := p.Delta1()
	denom := multiset.Log2Zeta(k, d1)
	if denom <= 0 {
		return math.Inf(1)
	}
	return float64(int64(d1)*p.C2) / denom
}

// ActiveLowerBound returns Theorem 5.6's bound on every active solution
// with |P^tr| = k:
//
//	eff >= d / log2 ζ_k(δ2).
func ActiveLowerBound(p Params, k int) float64 {
	d2 := p.Delta2()
	denom := multiset.Log2Zeta(k, d2)
	if denom <= 0 {
		return math.Inf(1)
	}
	return float64(p.D) / denom
}

// BetaUpperBound returns Lemma 6.1's effort bound for A^β(k):
//
//	eff <= (δ1 + ⌈d/c1⌉)·c2 / ⌊log2 μ_k(δ1)⌋,
//
// which is the paper's 2δ1c2/⌊log2 μ_k(δ1)⌋ when c1 | d.
func BetaUpperBound(p Params, k int) float64 {
	bits := BetaBlockBits(p, k)
	if bits <= 0 {
		return math.Inf(1)
	}
	round := int64(p.Delta1()+p.CeilSteps1()) * p.C2
	return float64(round) / float64(bits)
}

// GammaUpperBound returns Section 6.2's effort bound for A^γ(k):
//
//	eff <= (3d + c2) / ⌊log2 μ_k(δ2)⌋.
func GammaUpperBound(p Params, k int) float64 {
	bits := GammaBlockBits(p, k)
	if bits <= 0 {
		return math.Inf(1)
	}
	return float64(3*p.D+p.C2) / float64(bits)
}

// PassiveTightness returns BetaUpperBound / PassiveLowerBound — the
// constant factor separating the r-passive solution from the r-passive
// lower bound (the paper's "only a constant factor worse"). It is NaN
// when either bound is degenerate (k < 2 encodes nothing).
func PassiveTightness(p Params, k int) float64 {
	lb := PassiveLowerBound(p, k)
	ub := BetaUpperBound(p, k)
	if lb == 0 || math.IsInf(lb, 1) || math.IsInf(ub, 1) {
		return math.NaN()
	}
	return ub / lb
}

// ActiveTightness returns GammaUpperBound / ActiveLowerBound, NaN when
// degenerate.
func ActiveTightness(p Params, k int) float64 {
	lb := ActiveLowerBound(p, k)
	ub := GammaUpperBound(p, k)
	if lb == 0 || math.IsInf(lb, 1) || math.IsInf(ub, 1) {
		return math.NaN()
	}
	return ub / lb
}

// EffortRow pairs one transmitter alphabet size k with the paper's effort
// bounds for it: the protocol-family upper bound (what A^β(k)/A^γ(k) is
// guaranteed to achieve) and the matching lower bound (what Theorems 5.3
// and 5.6 prove any solution of that family must spend). A stack reads
// the row for its own k to report the bounds a served run is scored
// against; effort falls like 1/log k while the packet alphabet — and
// hence packet size — grows with k.
type EffortRow struct {
	// K is the transmitter packet alphabet size |P^tr|.
	K int
	// Lower is the per-message effort lower bound in ticks: Theorem 5.3
	// (δ1·c2/log2 ζ_k(δ1)) for r-passive families, Theorem 5.6
	// (d/log2 ζ_k(δ2)) for active ones.
	Lower float64
	// Upper is the per-message effort upper bound in ticks: Lemma 6.1 for
	// A^β(k), the Section 6.2 analysis for A^γ(k), d·c2/c1 for A^α.
	Upper float64
}

// EffortTable evaluates the Sections 5 and 6 bound formulas over a set of
// candidate alphabet sizes for one protocol family ("alpha", "beta" or
// "gamma"), in ascending k. Degenerate rows (k < 2, or a bound that is
// infinite because the alphabet encodes nothing) are dropped rather than
// returned as ±Inf, so callers can iterate the table without guarding.
// Alpha ignores ks: its alphabet is binary and its single row is k = 2.
func EffortTable(p Params, proto string, ks []int) []EffortRow {
	if proto == "alpha" {
		return []EffortRow{{K: 2, Lower: PassiveLowerBound(p, 2), Upper: AlphaEffort(p)}}
	}
	out := make([]EffortRow, 0, len(ks))
	for _, k := range ks {
		if k < 2 {
			continue
		}
		var row EffortRow
		switch proto {
		case "beta":
			row = EffortRow{K: k, Lower: PassiveLowerBound(p, k), Upper: BetaUpperBound(p, k)}
		case "gamma":
			row = EffortRow{K: k, Lower: ActiveLowerBound(p, k), Upper: GammaUpperBound(p, k)}
		default:
			return nil
		}
		if math.IsInf(row.Lower, 1) || math.IsInf(row.Upper, 1) || math.IsNaN(row.Lower) || math.IsNaN(row.Upper) {
			continue
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// MinRoundsPassive returns the Section 5.1 counting bound on the number of
// δ1-step intervals any r-passive solution needs for inputs of length n:
//
//	ℓ(n) >= n / log2 ζ_k(δ1).
func MinRoundsPassive(p Params, k, n int) float64 {
	denom := multiset.Log2Zeta(k, p.Delta1())
	if denom <= 0 {
		return math.Inf(1)
	}
	return float64(n) / denom
}
