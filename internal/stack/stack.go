// Package stack turns a protocol stack name into the pair builder that
// serves it. It is the one place that knows which layers compose: the
// paper's retransmission families (alpha, beta, gamma) optionally
// wrapped in the hardened and/or stabilized layers, and the rateless
// pair, which is always bare because loss tolerance is native to its
// code. A stack has one name, its Builder.String() (e.g.
// "stabilized(hardened(beta(k=4)))"), which Parse reads back. The
// serving and chaos commands assemble their stacks here.
package stack

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/rateless"
	"repro/internal/rstp"
	"repro/internal/session"
)

// Spec describes one protocol stack.
type Spec struct {
	// Proto names the family: "alpha", "beta", "gamma" or "rateless".
	Proto string
	// K is the packet alphabet size (alpha ignores it).
	K int
	// Harden wraps the family in the hardened reliability layer.
	Harden bool
	// Stabilize wraps the family (hardened or not) in the stabilizing
	// recovery layer.
	Stabilize bool
	// Store, when non-nil, makes the stabilized layer checkpoint into it
	// and recover from it on construction. Only a stabilized stack takes
	// one.
	Store rstp.StateStore
	// Observer is shared by every endpoint the wrappers build.
	Observer rstp.LayerObserver
	// Seed pins the rateless family's per-block symbol streams.
	Seed int64
	// Registry receives the rateless family's rstp_rateless_* instruments.
	Registry *obs.Registry
}

// Stack is an assembled protocol stack.
type Stack struct {
	// Builder constructs the session pairs; its String() names the
	// stack, e.g. "stabilized(hardened(beta(k=4)))".
	Builder session.PairBuilder
	// BlockBits is the family's block size: inputs must be a multiple.
	BlockBits int
	// Lower is the paper's per-message effort lower bound (Thm 5.3 for
	// the r-passive alpha/beta, Thm 5.6 for the active gamma and the
	// ack-bearing rateless pair), 0 when the bound is degenerate.
	Lower float64
	// Upper is the family's per-message effort upper bound in ticks.
	Upper float64
}

// Parse reads a stack name, the inverse of Builder.String(): "alpha",
// "beta(k=N)", "gamma(k=N)" or "rateless(k=N)", optionally inside
// "hardened(…)" and then "stabilized(…)". Each stack has exactly one
// name: it holds no spaces, and N has no sign and no leading zeros.
// Parse checks the grammar only; Build refuses what does not compose.
func Parse(name string) (Spec, error) {
	var s Spec
	rest := name
	if inner, ok := unwrap(rest, "stabilized"); ok {
		s.Stabilize, rest = true, inner
	}
	if inner, ok := unwrap(rest, "hardened"); ok {
		s.Harden, rest = true, inner
	}
	if rest == "alpha" {
		s.Proto = "alpha"
		return s, nil
	}
	for _, fam := range []string{"beta", "gamma", "rateless"} {
		arg, ok := unwrap(rest, fam)
		if !ok || !strings.HasPrefix(arg, "k=") {
			continue
		}
		if k, err := strconv.Atoi(arg[2:]); err == nil && k >= 0 && strconv.Itoa(k) == arg[2:] {
			s.Proto, s.K = fam, k
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown stack %q: want alpha, beta(k=N), gamma(k=N) or rateless(k=N), optionally inside hardened(...) and then stabilized(...)", name)
}

// unwrap returns x when s is "layer(x)".
func unwrap(s, layer string) (string, bool) {
	if strings.HasPrefix(s, layer+"(") && strings.HasSuffix(s, ")") {
		return s[len(layer)+1 : len(s)-1], true
	}
	return "", false
}

// Build assembles the stack s describes under timing constants p. It
// refuses unknown families and the combinations that do not compose:
// the hardened and stabilized wrappers speak the retransmission
// families' burst framing and have nothing to add to a fountain-coded
// stream, and only the stabilized layer checkpoints into a Store.
func Build(p rstp.Params, s Spec) (Stack, error) {
	if s.Store != nil && !s.Stabilize {
		return Stack{}, fmt.Errorf("a state store needs a stabilized stack: only the stabilized layer checkpoints")
	}
	if s.Proto == "rateless" {
		if s.Harden || s.Stabilize {
			return Stack{}, fmt.Errorf("rateless does not compose with the hardened or stabilized layer: loss tolerance is native to the code")
		}
		b, err := rateless.NewBuilder(rateless.Options{Params: p, K: s.K, Seed: s.Seed, Obs: s.Registry})
		if err != nil {
			return Stack{}, err
		}
		return Stack{Builder: b, BlockBits: b.BlockBits(), Lower: finite(rateless.LowerBound(p, s.K)), Upper: rateless.UpperBound(p, s.K)}, nil
	}
	sol, err := rstp.New(p, s.Proto, s.K)
	if err != nil {
		return Stack{}, err
	}
	rows := rstp.EffortTable(p, s.Proto, []int{s.K})
	if len(rows) != 1 {
		return Stack{}, fmt.Errorf("%s has no finite effort bounds", sol)
	}
	st := Stack{Builder: sol, BlockBits: sol.BlockBits, Lower: finite(rows[0].Lower), Upper: rows[0].Upper}
	sopts := rstp.StabilizeOptions{Observer: s.Observer}
	if s.Store != nil {
		sopts.Store = s.Store
		sopts.Recover = true
	}
	switch {
	case s.Harden && s.Stabilize:
		st.Builder = rstp.StabilizeHardened(rstp.Harden(sol, rstp.HardenOptions{Observer: s.Observer}), sopts)
	case s.Harden:
		st.Builder = rstp.Harden(sol, rstp.HardenOptions{Observer: s.Observer})
	case s.Stabilize:
		st.Builder = rstp.Stabilize(sol, sopts)
	}
	return st, nil
}

// finite clamps a degenerate (∞ or NaN) bound to 0, which disables the
// effort-gap metric instead of poisoning it.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
