// Package chanmodel implements the paper's channel C(P) (Section 4):
// an automaton whose inputs are send(p) and outputs recv(p), with fair
// executions pairing every send with exactly one recv, no packet received
// before it is sent.
//
// Two realisations live here:
//
//   - Channel: an untimed I/O automaton usable in ioa compositions;
//   - DelayPolicy: the timed channel's adversary — it picks each packet's
//     delivery time, subject (for well-behaved policies) to the Δ(C(P))
//     bound of at most d ticks. Faulty policies (loss, duplication,
//     exceeding d) also live here, for the STP baseline and for fault
//     injection; the timed validators flag them.
package chanmodel

import (
	"fmt"
	"math/rand"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// DelayPolicy decides when (and whether, and how many times) each sent
// packet arrives. It is consulted once per send event.
type DelayPolicy interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// Arrivals returns the absolute arrival times for a packet sent at
	// sendTime. dirSeq counts packets per direction (0-based). An empty
	// result drops the packet; multiple entries duplicate it. Well-behaved
	// policies return exactly one time in [sendTime, sendTime+d].
	// The result is valid only until the next call: a policy may reuse
	// one slice for every packet, so a caller copies out what it keeps.
	Arrivals(dirSeq int64, sendTime int64, dir wire.Dir, p wire.Packet) []int64
}

// Arrival is one delivery produced by a packet-mutating delay policy: an
// arrival time paired with the packet as delivered, which corruption
// faults may have altered from the packet that was sent.
type Arrival struct {
	// At is the absolute arrival time.
	At int64
	// P is the delivered packet.
	P wire.Packet
}

// Mutator is the optional DelayPolicy extension for fault injection:
// policies that can alter packets in flight (payload corruption) implement
// it, and the simulator prefers it over Arrivals when present. A Mutator's
// Arrivals and ArrivalsMut must describe the same delivery schedule.
type Mutator interface {
	DelayPolicy
	// ArrivalsMut is Arrivals with the delivered packets made explicit.
	// The result is valid only until the next call: a policy may reuse
	// one slice for every packet, so a caller copies out what it keeps.
	ArrivalsMut(dirSeq int64, sendTime int64, dir wire.Dir, p wire.Packet) []Arrival
}

// defaultRand returns the fixed-seed source the random policies fall back
// to when built without one: a zero-value policy stays deterministic and
// usable instead of panicking on its first packet.
func defaultRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// Zero delivers every packet instantly (delay 0) — the fastest channel.
type Zero struct{}

var _ DelayPolicy = Zero{}

// Name returns "zero-delay".
func (Zero) Name() string { return "zero-delay" }

// Arrivals returns the send time itself.
func (Zero) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	return []int64{sendTime}
}

// MaxDelay delays every packet by exactly d ticks — the slowest channel
// permitted by Δ(C(P)).
type MaxDelay struct {
	// D is the delay bound.
	D int64
}

var _ DelayPolicy = MaxDelay{}

// Name returns "max-delay".
func (m MaxDelay) Name() string { return fmt.Sprintf("max-delay(%d)", m.D) }

// Arrivals returns sendTime + D.
func (m MaxDelay) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	return []int64{sendTime + m.D}
}

// FixedDelay delays every packet by a constant.
type FixedDelay struct {
	// Delay is the per-packet delay in ticks.
	Delay int64
}

var _ DelayPolicy = FixedDelay{}

// Name returns "fixed-delay(v)".
func (f FixedDelay) Name() string { return fmt.Sprintf("fixed-delay(%d)", f.Delay) }

// Arrivals returns sendTime + Delay.
func (f FixedDelay) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	return []int64{sendTime + f.Delay}
}

// UniformRandom delays each packet independently and uniformly in [0, D].
// Like its Rand, the slice Arrivals returns is the policy's own, so it
// is not safe for concurrent use.
type UniformRandom struct {
	// D is the delay bound.
	D int64
	// Rand is the randomness source.
	Rand *rand.Rand

	at [1]int64 // Arrivals' result, reused per call
}

var _ DelayPolicy = (*UniformRandom)(nil)

// Name returns "uniform-random".
func (u *UniformRandom) Name() string { return fmt.Sprintf("uniform-random(%d)", u.D) }

// Arrivals returns one uniformly delayed arrival.
func (u *UniformRandom) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	if u.Rand == nil {
		u.Rand = defaultRand()
	}
	u.at[0] = sendTime + u.Rand.Int63n(u.D+1)
	return u.at[:]
}

// ReverseBurst reverses the arrival order of each burst of Burst
// consecutive same-direction packets, assuming the sender emits them
// StepGap ticks apart: packet j of a burst (j = 0..Burst-1) gets delay
// D - j*(StepGap+1), so arrivals are strictly decreasing across the burst.
// Delays are clamped at 0 (a clamped burst reverses only partially), and
// never exceed D. This is the adversary that breaks any in-burst
// order-dependent decoder while remaining a legal Δ(C(P)) channel — the
// multiset encoding of A^β/A^γ survives it by construction.
type ReverseBurst struct {
	// D is the delay bound.
	D int64
	// Burst is the number of packets per burst.
	Burst int
	// StepGap is the sender's inter-send gap in ticks.
	StepGap int64
}

var _ DelayPolicy = ReverseBurst{}

// Name returns "reverse-burst".
func (r ReverseBurst) Name() string {
	return fmt.Sprintf("reverse-burst(d=%d,b=%d,gap=%d)", r.D, r.Burst, r.StepGap)
}

// Arrivals reverses in-burst order for the t->r direction and delivers
// other traffic (acks) instantly.
func (r ReverseBurst) Arrivals(dirSeq int64, sendTime int64, dir wire.Dir, _ wire.Packet) []int64 {
	if dir != wire.TtoR || r.Burst <= 1 {
		return []int64{sendTime}
	}
	j := dirSeq % int64(r.Burst)
	delay := r.D - j*(r.StepGap+1)
	if delay < 0 {
		delay = 0
	}
	return []int64{sendTime + delay}
}

// IntervalBatch realises the Figure 2 adversary with ε = 1 tick: the
// timeline is cut into intervals t_i = [iP, (i+1)P) of length P = d - 1,
// and every packet sent during t_i is delivered at the start of t̂_{i+1},
// i.e. at tick (i+1)P, in send order. Delays are then within [1, d-1],
// so this is a legal Δ(C(P)) channel.
type IntervalBatch struct {
	// D is the delay bound; the interval length is D - 1.
	D int64
}

var _ DelayPolicy = IntervalBatch{}

// Name returns "interval-batch".
func (b IntervalBatch) Name() string { return fmt.Sprintf("interval-batch(d=%d)", b.D) }

// Period returns the interval length P = d - 1.
func (b IntervalBatch) Period() int64 { return b.D - 1 }

// Arrivals returns the batch boundary following the packet's interval.
func (b IntervalBatch) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	p := b.Period()
	if p <= 0 {
		return []int64{sendTime}
	}
	i := sendTime / p
	return []int64{(i + 1) * p}
}

// Func adapts a closure as a delay policy, for scripted adversaries in
// tests and the lower-bound constructions.
type Func struct {
	// Label names the policy.
	Label string
	// F computes the arrivals.
	F func(dirSeq int64, sendTime int64, dir wire.Dir, p wire.Packet) []int64
}

var _ DelayPolicy = Func{}

// Name returns the label.
func (f Func) Name() string { return f.Label }

// Arrivals delegates to the closure.
func (f Func) Arrivals(dirSeq int64, sendTime int64, dir wire.Dir, p wire.Packet) []int64 {
	return f.F(dirSeq, sendTime, dir, p)
}

// LossyDup is the classical faulty channel of the paper's introduction:
// it loses packets with probability LossProb, duplicates survivors with
// probability DupProb, and delays each delivery uniformly in [0, D]. It is
// the substrate for the alternating-bit baseline (internal/stp); it is NOT
// a legal RSTP channel when LossProb > 0.
type LossyDup struct {
	// D bounds each delivery's delay (losses aside).
	D int64
	// LossProb is the probability a packet is lost outright.
	LossProb float64
	// DupProb is the probability a delivered packet is delivered twice.
	DupProb float64
	// Rand is the randomness source.
	Rand *rand.Rand
}

var _ DelayPolicy = (*LossyDup)(nil)

// Name returns "lossy-dup".
func (l *LossyDup) Name() string {
	return fmt.Sprintf("lossy-dup(loss=%.2f,dup=%.2f,d=%d)", l.LossProb, l.DupProb, l.D)
}

// Arrivals drops, delivers, or double-delivers the packet.
func (l *LossyDup) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	if l.Rand == nil {
		l.Rand = defaultRand()
	}
	if l.Rand.Float64() < l.LossProb {
		return nil
	}
	out := []int64{sendTime + l.Rand.Int63n(l.D+1)}
	if l.Rand.Float64() < l.DupProb {
		out = append(out, sendTime+l.Rand.Int63n(l.D+1))
	}
	return out
}

// Jitter delays every packet by Base plus uniform noise in [-Amp, +Amp],
// clamped to [0, D] — a centred-latency channel, the common case between
// Zero and MaxDelay.
type Jitter struct {
	// D is the hard bound.
	D int64
	// Base is the typical delay.
	Base int64
	// Amp is the jitter amplitude.
	Amp int64
	// Rand is the randomness source.
	Rand *rand.Rand
}

var _ DelayPolicy = (*Jitter)(nil)

// Name returns "jitter".
func (j *Jitter) Name() string { return fmt.Sprintf("jitter(base=%d±%d,d=%d)", j.Base, j.Amp, j.D) }

// Arrivals returns one jittered arrival within [sendTime, sendTime+D].
func (j *Jitter) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	if j.Rand == nil {
		j.Rand = defaultRand()
	}
	delay := j.Base
	if j.Amp > 0 {
		delay += j.Rand.Int63n(2*j.Amp+1) - j.Amp
	}
	if delay < 0 {
		delay = 0
	}
	if delay > j.D {
		delay = j.D
	}
	return []int64{sendTime + delay}
}

// Bursty alternates between a fast phase (delay Lo) and a congested phase
// (delay Hi <= D) every Period ticks of send time — a square-wave latency
// profile that stresses phase-dependent behaviour without violating Δ.
type Bursty struct {
	// D is the hard bound.
	D int64
	// Lo and Hi are the two phase delays.
	Lo, Hi int64
	// Period is the phase length in ticks.
	Period int64
}

var _ DelayPolicy = Bursty{}

// Name returns "bursty".
func (b Bursty) Name() string {
	return fmt.Sprintf("bursty(lo=%d,hi=%d,period=%d)", b.Lo, b.Hi, b.Period)
}

// Arrivals returns the phase-dependent arrival.
func (b Bursty) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	delay := b.Lo
	if b.Period > 0 && (sendTime/b.Period)%2 == 1 {
		delay = b.Hi
	}
	if delay > b.D {
		delay = b.D
	}
	if delay < 0 {
		delay = 0
	}
	return []int64{sendTime + delay}
}

// UniformWindow delays each packet independently and uniformly in
// [D1, D2] — the Section 7 generalised channel with a delivery window.
type UniformWindow struct {
	// D1, D2 bound the delay.
	D1, D2 int64
	// Rand is the randomness source.
	Rand *rand.Rand
}

var _ DelayPolicy = (*UniformWindow)(nil)

// Name returns "uniform-window".
func (u *UniformWindow) Name() string { return fmt.Sprintf("uniform-window(%d,%d)", u.D1, u.D2) }

// Arrivals returns one arrival delayed uniformly within the window.
func (u *UniformWindow) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	if u.Rand == nil {
		u.Rand = defaultRand()
	}
	if u.D2 <= u.D1 {
		return []int64{sendTime + u.D1}
	}
	return []int64{sendTime + u.D1 + u.Rand.Int63n(u.D2-u.D1+1)}
}

// FIFOLossyDup is LossyDup restricted to order-preserving delivery: it
// loses packets and duplicates survivors (duplicates arrive back to back),
// but never reorders — per direction, arrival times are monotone in send
// order. This is the channel class the Alternating Bit protocol is correct
// for ([BSW69]); with reordering added, STP over dup channels is
// unsolvable ([WZ89]), and internal/stp's tests exhibit the failure.
type FIFOLossyDup struct {
	// D bounds each delivery's extra delay.
	D int64
	// LossProb is the probability a packet is lost outright.
	LossProb float64
	// DupProb is the probability a delivered packet arrives twice.
	DupProb float64
	// Rand is the randomness source.
	Rand *rand.Rand

	last map[wire.Dir]int64
}

var _ DelayPolicy = (*FIFOLossyDup)(nil)

// Name returns "fifo-lossy-dup".
func (l *FIFOLossyDup) Name() string {
	return fmt.Sprintf("fifo-lossy-dup(loss=%.2f,dup=%.2f,d=%d)", l.LossProb, l.DupProb, l.D)
}

// Arrivals drops, delivers, or double-delivers the packet, clamping
// arrival times to be monotone per direction.
func (l *FIFOLossyDup) Arrivals(_ int64, sendTime int64, dir wire.Dir, _ wire.Packet) []int64 {
	if l.last == nil {
		l.last = make(map[wire.Dir]int64)
	}
	if l.Rand == nil {
		l.Rand = defaultRand()
	}
	if l.Rand.Float64() < l.LossProb {
		return nil
	}
	at := sendTime + l.Rand.Int63n(l.D+1)
	if prev, ok := l.last[dir]; ok && at < prev {
		at = prev
	}
	l.last[dir] = at
	out := []int64{at}
	if l.Rand.Float64() < l.DupProb {
		out = append(out, at) // duplicate arrives back to back
	}
	return out
}

// ExceedBound delivers every packet d + Excess ticks after it is sent —
// a channel that violates Δ(C(P)), used for fault injection: the timed
// validators must flag it, and A^β may misbehave on it while A^γ (whose
// safety is ack-clocked, not time-clocked) must not.
type ExceedBound struct {
	// D is the nominal bound being violated.
	D int64
	// Excess is how far past the bound deliveries land.
	Excess int64
}

var _ DelayPolicy = ExceedBound{}

// Name returns "exceed-bound".
func (e ExceedBound) Name() string { return fmt.Sprintf("exceed-bound(d=%d,+%d)", e.D, e.Excess) }

// Arrivals returns sendTime + D + Excess.
func (e ExceedBound) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	return []int64{sendTime + e.D + e.Excess}
}

// Channel is the untimed channel automaton C(P) for ioa compositions. Its
// inputs are all send actions, its outputs all recv actions; a recv(p) is
// enabled whenever a matching packet is in flight. NextLocal delivers the
// oldest in-flight packet (FIFO), but Apply accepts any in-flight packet,
// so schedulers may reorder at will — matching the specification, which
// constrains only the send/recv bijection.
type Channel struct {
	name     string
	inFlight []wire.Send // pending sends in arrival-eligible order
}

var _ ioa.Automaton = (*Channel)(nil)

// NewChannel builds an empty untimed channel named name.
func NewChannel(name string) *Channel { return &Channel{name: name} }

// Name returns the channel's name.
func (c *Channel) Name() string { return c.name }

// InFlight returns the number of undelivered packets.
func (c *Channel) InFlight() int { return len(c.inFlight) }

// Classify marks sends as inputs and recvs as outputs.
func (c *Channel) Classify(a ioa.Action) ioa.Class {
	switch a.(type) {
	case wire.Send:
		return ioa.ClassInput
	case wire.Recv:
		return ioa.ClassOutput
	default:
		return ioa.ClassNone
	}
}

// NextLocal proposes delivery of the oldest in-flight packet.
func (c *Channel) NextLocal() (ioa.Action, bool) {
	if len(c.inFlight) == 0 {
		return nil, false
	}
	s := c.inFlight[0]
	return wire.Recv{Dir: s.Dir, P: s.P}, true
}

// Apply accepts sends (enqueue) and enabled recvs (dequeue a matching
// in-flight packet).
func (c *Channel) Apply(a ioa.Action) error {
	switch act := a.(type) {
	case wire.Send:
		c.inFlight = append(c.inFlight, act)
		return nil
	case wire.Recv:
		for i, s := range c.inFlight {
			if s.Dir == act.Dir && s.P == act.P {
				c.inFlight = append(c.inFlight[:i], c.inFlight[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("chanmodel: %v with no matching in-flight packet: %w", act, ioa.ErrNotEnabled)
	default:
		return fmt.Errorf("chanmodel: %v: %w", a, ioa.ErrNotInSignature)
	}
}
