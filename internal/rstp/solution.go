package rstp

import (
	"fmt"

	"repro/internal/chanmodel"
	"repro/internal/ioa"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/wire"
)

// Kind names one of the paper's three solutions.
type Kind string

const (
	// KindAlpha is the simple r-passive solution A^α (Figure 1).
	KindAlpha Kind = "alpha"
	// KindBeta is the encoded r-passive solution A^β(k) (Figure 3).
	KindBeta Kind = "beta"
	// KindGamma is the active solution A^γ(k) (Figure 4).
	KindGamma Kind = "gamma"
)

// Solution bundles a protocol pair with its parameters: the composition
// At ∘ Ar the paper calls A^α, A^β(k) or A^γ(k). The β and γ solutions
// build their codec once, and every pair they build shares it.
type Solution struct {
	// Kind identifies the protocol family.
	Kind Kind
	// Params are the timing constants.
	Params Params
	// K is the transmitter's packet-alphabet size (2 for A^α, whose
	// alphabet is M itself).
	K int
	// Passive reports whether the receiver sends no packets.
	Passive bool
	// BlockBits is the number of input bits per transmission unit: 1 for
	// A^α, ⌊log2 μ_k(δ)⌋ for the burst protocols. Inputs to Run must be a
	// multiple of BlockBits long.
	BlockBits int

	newPair func(x []wire.Bit) (t, r ioa.Automaton, err error)
}

// Alpha returns the A^α solution.
func Alpha(p Params) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	return Solution{
		Kind:      KindAlpha,
		Params:    p,
		K:         2,
		Passive:   true,
		BlockBits: 1,
		newPair: func(x []wire.Bit) (ioa.Automaton, ioa.Automaton, error) {
			t, err := NewAlphaTransmitter(p, x)
			if err != nil {
				return nil, nil, err
			}
			r, err := NewAlphaReceiver(p)
			if err != nil {
				return nil, nil, err
			}
			return t, r, nil
		},
	}, nil
}

// Beta returns the A^β(k) solution.
func Beta(p Params, k int) (Solution, error) {
	codec, err := betaCodec(p, k)
	if err != nil {
		return Solution{}, err
	}
	return Solution{
		Kind:      KindBeta,
		Params:    p,
		K:         k,
		Passive:   true,
		BlockBits: codec.BlockBits(),
		newPair: func(x []wire.Bit) (ioa.Automaton, ioa.Automaton, error) {
			t, err := newBetaTransmitter(p, codec, x)
			if err != nil {
				return nil, nil, err
			}
			return t, newBetaReceiver(codec), nil
		},
	}, nil
}

// Gamma returns the A^γ(k) solution.
func Gamma(p Params, k int) (Solution, error) {
	codec, err := gammaCodec(p, k)
	if err != nil {
		return Solution{}, err
	}
	return Solution{
		Kind:      KindGamma,
		Params:    p,
		K:         k,
		Passive:   false,
		BlockBits: codec.BlockBits(),
		newPair: func(x []wire.Bit) (ioa.Automaton, ioa.Automaton, error) {
			t, err := newGammaTransmitter(codec, x)
			if err != nil {
				return nil, nil, err
			}
			return t, newGammaReceiver(codec), nil
		},
	}, nil
}

// New returns the solution named proto: "alpha", "beta" or "gamma",
// with packet alphabet size k (alpha ignores k: its alphabet is binary).
// The matching effort bounds are the EffortTable row for the same name.
func New(p Params, proto string, k int) (Solution, error) {
	switch Kind(proto) {
	case KindAlpha:
		return Alpha(p)
	case KindBeta:
		return Beta(p, k)
	case KindGamma:
		return Gamma(p, k)
	}
	return Solution{}, fmt.Errorf("unknown protocol %q (alpha, beta, gamma)", proto)
}

// String renders the solution name, e.g. "beta(k=4)".
func (s Solution) String() string {
	if s.Kind == KindAlpha {
		return string(s.Kind)
	}
	return fmt.Sprintf("%s(k=%d)", s.Kind, s.K)
}

// NewPair constructs fresh transmitter and receiver automata for input x.
func (s Solution) NewPair(x []wire.Bit) (t, r ioa.Automaton, err error) {
	return s.newPair(x)
}

// RunOptions select the schedules of one timed execution. Zero values get
// the worst-case defaults: both processes at the slowest legal schedule
// (every c2 ticks) and the channel at maximum delay — the execution whose
// effort matches the analytic bounds.
type RunOptions struct {
	// TPolicy schedules the transmitter's steps (default fixed(c2)).
	TPolicy sim.StepPolicy
	// RPolicy schedules the receiver's steps (default fixed(c2)).
	RPolicy sim.StepPolicy
	// Delay is the channel adversary (default max-delay(d)).
	Delay chanmodel.DelayPolicy
	// ProcFaults schedules process crashes, restarts and state corruption
	// (default none). Runs with a schedule carry a Stabilization report.
	ProcFaults sim.ProcSchedule
	// MaxTicks and MaxEvents cap the run (0 = simulator defaults).
	MaxTicks  int64
	MaxEvents int
}

func (o RunOptions) withDefaults(p Params) RunOptions {
	if o.TPolicy == nil {
		o.TPolicy = sim.FixedGap{C: p.C2}
	}
	if o.RPolicy == nil {
		o.RPolicy = sim.FixedGap{C: p.C2}
	}
	if o.Delay == nil {
		o.Delay = chanmodel.MaxDelay{D: p.D}
	}
	return o
}

// Run executes the solution on input x until all |x| messages are written,
// returning the timed run. The input length must be a multiple of
// BlockBits (see PadToBlock).
func (s Solution) Run(x []wire.Bit, opt RunOptions) (*sim.Run, error) {
	return simulate(s, s.Params, x, opt)
}

// Verify checks good(A) and the RSTP correctness condition Y = X over a
// completed run.
func (s Solution) Verify(run *sim.Run, x []wire.Bit) []timed.Violation {
	return verifyGood(s.Params, run, x)
}

// pairBuilder is one protocol stack: a bare Solution, or either
// robustness layer over one. Every stack runs through simulate, and the
// stabilizing layer wraps any of them, which is what makes the two layers
// composable in either thickness (stabilized bare, or stabilized+hardened).
type pairBuilder interface {
	NewPair(x []wire.Bit) (t, r ioa.Automaton, err error)
	String() string
}

// simulate is every stack's Run: it executes b's pair on input x under p
// until all |x| messages are written or the caps fire, and measures the
// run's Stabilization report.
func simulate(b pairBuilder, p Params, x []wire.Bit, opt RunOptions) (*sim.Run, error) {
	opt = opt.withDefaults(p)
	t, r, err := b.NewPair(x)
	if err != nil {
		return nil, err
	}
	run, err := sim.Simulate(sim.Config{
		C1:          p.C1,
		C2:          p.C2,
		D:           p.D,
		Transmitter: sim.Process{Auto: t, Policy: opt.TPolicy},
		Receiver:    sim.Process{Auto: r, Policy: opt.RPolicy},
		Delay:       opt.Delay,
		ProcFaults:  opt.ProcFaults,
		Stop:        sim.StopAfterWrites(len(x)),
		MaxTicks:    opt.MaxTicks,
		MaxEvents:   opt.MaxEvents,
	})
	if run != nil {
		run.MeasureStabilization(x)
	}
	if err != nil {
		return run, fmt.Errorf("rstp: %s run: %w", b, err)
	}
	return run, nil
}

// verifyGood is every stack's Verify: the full good(A) conditions under
// p plus Y = X.
func verifyGood(p Params, run *sim.Run, x []wire.Bit) []timed.Violation {
	return timed.Good(run.Trace, timed.GoodConfig{
		C1:              p.C1,
		C2:              p.C2,
		D:               p.D,
		Transmitter:     TransmitterName,
		Receiver:        ReceiverName,
		X:               x,
		RequireComplete: true,
	})
}

// Effort is one measured effort data point.
type Effort struct {
	// N is the input length in messages.
	N int
	// LastSend is t(last-send) of the run.
	LastSend int64
	// PerMessage is LastSend / N — the effort estimate.
	PerMessage float64
	// Schedule and Delay label the adversaries used.
	Schedule, Delay string
}

// MeasureEffort runs the solution on x and reports t(last-send)/|x|,
// verifying the run is good and complete first.
func (s Solution) MeasureEffort(x []wire.Bit, opt RunOptions) (Effort, error) {
	opt = opt.withDefaults(s.Params)
	run, err := s.Run(x, opt)
	if err != nil {
		return Effort{}, err
	}
	if v := s.Verify(run, x); len(v) > 0 {
		return Effort{}, fmt.Errorf("rstp: %s run not good: %v (and %d more)", s, v[0], len(v)-1)
	}
	last, ok := run.LastSendTime()
	if !ok {
		return Effort{}, fmt.Errorf("rstp: %s run sent nothing", s)
	}
	return Effort{
		N:          len(x),
		LastSend:   last,
		PerMessage: float64(last) / float64(len(x)),
		Schedule:   opt.TPolicy.Name(),
		Delay:      opt.Delay.Name(),
	}, nil
}
