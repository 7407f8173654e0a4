// Package transport carries session-tagged RSTP packets between a
// transmitter-side process and a receiver-side process in real time.
//
// A Transport is the serving-layer realisation of the paper's channel
// C(P^tr ∪ P^rt): a bidirectional datagram link that may reorder packets
// arbitrarily but — inside the model — delivers each within d ticks,
// without loss or duplication. The tick is given physical meaning by a
// shared Clock that both the transports and the session layer read, so
// "within d ticks" becomes "within d·Tick of wall time".
//
// Two implementations are provided:
//
//   - Mem: an in-process transport whose delivery schedule is computed by
//     a chanmodel.DelayPolicy (and optionally perturbed by a faults.Plan),
//     delivered by a single scheduler goroutine in arrival-time order. It
//     *enforces* the channel axioms: delay ≤ d (up to scheduler jitter),
//     no loss, no duplication — unless a fault plan deliberately breaks
//     them.
//   - UDP: a loopback socket pair for load tests against a real kernel
//     network path. It *inherits* UDP's semantics: reordering and loss
//     are possible and no delay bound is enforced; on loopback it behaves
//     like a near-zero-delay channel in practice.
//
// Faults enter a transport at one place, its delay line: a faults.Plan
// is the line's policy. Mem's line is its channel, so the
// delivery-latency histogram (the empirical Δ(C)) sees injected excess
// delay; a UDP that Open builds with fault clauses gets a line in front
// of its socket, whose plan adds faults on top of the kernel's own
// latency. A plan's time windows count ticks from the transport's first
// frame.
//
// See DESIGN.md ("Serving subsystem") for the full axiom-by-axiom map.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/wire"
)

// Transport is a bidirectional, session-multiplexed datagram channel.
//
// Send enqueues a frame traveling in f.Dir; Deliveries(dir) yields the
// frames traveling in dir as they arrive at the destination side
// (TtoR frames arrive at the receiver side, RtoT at the transmitter
// side). The deliveries channel is closed when the transport is closed.
//
// Implementations must be safe for concurrent use: many sessions send
// and receive through one transport.
type Transport interface {
	// Name identifies the transport in reports.
	Name() string
	// Send enqueues one frame for delivery toward its direction's
	// destination. It fails once the transport is closed.
	Send(f wire.Frame) error
	// Deliveries returns the delivery channel for frames traveling in dir.
	Deliveries(dir wire.Dir) <-chan wire.Frame
	// Close shuts the transport down and closes both delivery channels.
	// Close is idempotent.
	Close() error
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Open assembles the serving transport of the given kind, "mem" or
// "udp", on clock with delay bound d, injecting the fault clauses (none
// when empty). seed seeds Mem's uniform [0, d] delay and the fault plan.
//
// Over mem the plan wraps that delay as Mem's own policy, so injected
// excess delay shows in the delivery histogram. Over udp the plan wraps
// the zero policy in UDP's own delay line: its delays ride on top of the
// kernel's own latency. The second result names the plan ("" with no
// clauses); the transport's name ends in it.
func Open(kind string, clock *Clock, d, seed int64, clauses []faults.Fault) (Transport, string, error) {
	switch kind {
	case "mem":
		var delay chanmodel.DelayPolicy = &chanmodel.UniformRandom{D: d, Rand: rand.New(rand.NewSource(seed))}
		desc := ""
		if len(clauses) > 0 {
			plan := faults.NewPlan(seed, delay, clauses...)
			delay, desc = plan, plan.Name()
		}
		return NewMem(clock, MemOptions{D: d, Delay: delay, Buffer: 1 << 15}), desc, nil
	case "udp":
		u, err := NewUDPLoopback(1 << 14)
		if err != nil {
			return nil, "", err
		}
		if len(clauses) == 0 {
			return u, "", nil
		}
		plan := faults.NewPlan(seed, chanmodel.Zero{}, clauses...)
		u.line = new(delayLine)
		u.line.start(clock, plan, u.release)
		return u, plan.Name(), nil
	}
	return nil, "", fmt.Errorf("unknown transport %q (mem, udp)", kind)
}

// Clock maps the model's integer ticks onto wall time: tick n is the
// half-open interval [start + n·Tick, start + (n+1)·Tick). One Clock is
// shared by a transport and every session driven over it, so step bounds
// (c1, c2) and the delay bound d are measured against the same time base.
// Every wait on those ticks goes through the clock's one pacer (see
// NewWaiter), so each is woken at its tick, not at the runtime's timer
// granularity.
type Clock struct {
	start time.Time
	tick  time.Duration
	pace  pacer
}

// DefaultTick is the default physical length of one model tick.
const DefaultTick = 100 * time.Microsecond

// NewClock starts a clock whose tick lasts the given duration
// (DefaultTick if non-positive).
func NewClock(tick time.Duration) *Clock {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Clock{start: time.Now(), tick: tick}
}

// Tick returns the physical length of one tick.
func (c *Clock) Tick() time.Duration { return c.tick }

// Now returns the current tick count since the clock started.
func (c *Clock) Now() int64 { return c.since() / int64(c.tick) }

// Until returns the wall-time duration from now until the start of the
// given tick (non-positive if that tick has begun).
func (c *Clock) Until(tick int64) time.Duration {
	return time.Until(c.start.Add(time.Duration(tick) * c.tick))
}

// Ticks converts a tick count to a wall-time duration.
func (c *Clock) Ticks(n int64) time.Duration { return time.Duration(n) * c.tick }
