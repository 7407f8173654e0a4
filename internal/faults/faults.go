// Package faults is the chaos-testing middleware: deterministic, seeded,
// time-windowed fault injection layered over any chanmodel.DelayPolicy.
//
// The paper's guarantees hold only inside the model — every packet
// delivered within d, nothing lost, duplicated or damaged. A Plan wraps a
// well-behaved (or already adversarial) delay policy and, inside declared
// send-time windows, breaks those promises on purpose: blackouts, random
// drops, duplications, payload corruption, and deliveries pushed past the
// d bound. Because the plan is seeded and the simulator is deterministic,
// every chaos run is exactly reproducible: same seed, same faults, same
// trace.
//
// The package is one third of the hardening story: faults injects,
// sim's watchdog detects (Run.Degradation), and rstp.Harden survives —
// safety (Y a prefix of X) under any plan, liveness once the last fault
// window closes.
//
// The same seeded-plan idiom recurs one layer down the storage stack:
// journal.Plan drives a fault-injecting filesystem (short writes, fsync
// errors, bit flips, crash-at-write-offset) under the durable checkpoint
// journal, and ProcPlan (in this package) schedules the process-level
// crashes those filesystem faults are the on-disk shadow of.
package faults

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/chanmodel"
	"repro/internal/wire"
)

// Fault is one time-windowed fault clause. A packet is affected when its
// send time lies in [From, To) and its direction matches Dir (zero means
// both directions). Clauses compose: every matching clause of a plan is
// applied to the packet, in declaration order.
type Fault struct {
	// From and To bound the clause's active window in send-time ticks
	// (half-open: From <= sendTime < To).
	From, To int64
	// Dir restricts the clause to one direction; zero applies to both.
	Dir wire.Dir
	// Blackout drops every affected packet — a dead link for the window.
	Blackout bool
	// Drop is the probability an affected packet is lost outright.
	Drop float64
	// Dup is the probability an affected packet is delivered twice.
	Dup float64
	// Corrupt is the probability an affected packet's payload symbol is
	// damaged in flight. The damage is a symbol offset in [1, 15] — never
	// ≡ 0 (mod 16) — so the hardened layer's 16-bucket checksum detects it
	// deterministically, the way a real CRC catches damage w.h.p.
	Corrupt float64
	// ExtraDelay is added to every affected delivery, typically pushing it
	// past the model's bound d.
	ExtraDelay int64
}

// active reports whether the clause applies to a packet sent at sendTime
// in direction dir.
func (f Fault) active(sendTime int64, dir wire.Dir) bool {
	if sendTime < f.From || sendTime >= f.To {
		return false
	}
	return f.Dir == 0 || f.Dir == dir
}

// String renders the clause compactly, e.g. "[100,400) drop=0.20 dup=0.10".
func (f Fault) String() string {
	var parts []string
	if f.Blackout {
		parts = append(parts, "blackout")
	}
	if f.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", f.Drop))
	}
	if f.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.2f", f.Dup))
	}
	if f.Corrupt > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%.2f", f.Corrupt))
	}
	if f.ExtraDelay > 0 {
		parts = append(parts, fmt.Sprintf("delay+%d", f.ExtraDelay))
	}
	if len(parts) == 0 {
		parts = append(parts, "noop")
	}
	win := fmt.Sprintf("[%d,%d)", f.From, f.To)
	if f.Dir != 0 {
		win += fmt.Sprintf("@%v", f.Dir)
	}
	return win + " " + strings.Join(parts, " ")
}

// Plan is a seeded fault-injection schedule wrapped around an inner delay
// policy. It implements chanmodel.DelayPolicy and chanmodel.Mutator, so
// any existing run configuration can be chaos-tested by substituting
// NewPlan(seed, oldPolicy, faults...) for oldPolicy.
//
// Determinism: the plan draws from its own fixed-seed source, consumed
// only for packets inside a probabilistic clause's window, in send order —
// with a deterministic simulator the full fault pattern is a function of
// (seed, faults, workload).
//
// A Plan is not safe for concurrent use: like its rng, the scratch slice
// ArrivalsMut returns is the plan's own, so callers serialise their calls
// (the transports' delay line holds its lock across each one).
type Plan struct {
	inner   chanmodel.DelayPolicy
	faults  []Fault
	seed    int64
	rng     *rand.Rand
	scratch []chanmodel.Arrival // ArrivalsMut's result, reused per call

	injected injectionStats
}

// injectionStats counts what the plan actually did, for reports.
type injectionStats struct {
	Affected, Dropped, Duplicated, Corrupted, Delayed int
}

var _ chanmodel.Mutator = (*Plan)(nil)

// NewPlan wraps inner with the given fault clauses, drawing all
// randomness from seed.
func NewPlan(seed int64, inner chanmodel.DelayPolicy, faults ...Fault) *Plan {
	return &Plan{
		inner:  inner,
		faults: append([]Fault(nil), faults...),
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Name renders the plan and its inner policy.
func (p *Plan) Name() string {
	clauses := make([]string, len(p.faults))
	for i, f := range p.faults {
		clauses[i] = f.String()
	}
	return fmt.Sprintf("faults(seed=%d; %s)/%s", p.seed, strings.Join(clauses, "; "), p.inner.Name())
}

// End returns the close of the last fault window — the heal time after
// which the plan is a transparent pass-through. Zero for an empty plan.
func (p *Plan) End() int64 {
	var end int64
	for _, f := range p.faults {
		if f.To > end {
			end = f.To
		}
	}
	return end
}

// Stats reports how many packets the plan affected, dropped, duplicated,
// corrupted and delayed so far.
func (p *Plan) Stats() (affected, dropped, duplicated, corrupted, delayed int) {
	s := p.injected
	return s.Affected, s.Dropped, s.Duplicated, s.Corrupted, s.Delayed
}

// Arrivals implements chanmodel.DelayPolicy (times only; corruption is
// invisible through this method but consumes the same randomness, so a
// plan behaves identically whichever interface the engine uses).
func (p *Plan) Arrivals(dirSeq int64, sendTime int64, dir wire.Dir, pkt wire.Packet) []int64 {
	arr := p.ArrivalsMut(dirSeq, sendTime, dir, pkt)
	out := make([]int64, len(arr))
	for i, a := range arr {
		out[i] = a.At
	}
	return out
}

// ArrivalsMut implements chanmodel.Mutator: the inner policy's schedule
// with every active fault clause applied in declaration order. The
// result is the plan's scratch slice, valid until the next call.
func (p *Plan) ArrivalsMut(dirSeq int64, sendTime int64, dir wire.Dir, pkt wire.Packet) []chanmodel.Arrival {
	times := p.inner.Arrivals(dirSeq, sendTime, dir, pkt)
	out := p.scratch[:0]
	for _, at := range times {
		out = append(out, chanmodel.Arrival{At: at, P: pkt})
	}
	p.scratch = out
	for _, f := range p.faults {
		if !f.active(sendTime, dir) {
			continue
		}
		p.injected.Affected++
		if f.Blackout {
			p.injected.Dropped++
			return nil
		}
		if f.Drop > 0 && p.rng.Float64() < f.Drop {
			p.injected.Dropped++
			return nil
		}
		if f.Dup > 0 && p.rng.Float64() < f.Dup && len(out) > 0 {
			p.injected.Duplicated++
			out = append(out, out[0])
			p.scratch = out
		}
		if f.Corrupt > 0 && p.rng.Float64() < f.Corrupt {
			p.injected.Corrupted++
			// Offset in [1, 15]: nonzero mod 16, so checksum-detectable.
			delta := wire.Symbol(1 + p.rng.Intn(15))
			for i := range out {
				out[i].P.Symbol += delta
			}
		}
		if f.ExtraDelay > 0 {
			p.injected.Delayed++
			for i := range out {
				out[i].At += f.ExtraDelay
			}
		}
	}
	return out
}
