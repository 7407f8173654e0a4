package transport

import (
	"fmt"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Chaos is fault-injection middleware over any Transport: it applies a
// seeded faults.Plan (blackout, drop, duplication, symbol corruption,
// excess delay — all time-windowed in send ticks) to every frame before
// the inner transport sees it. Mem takes a plan as its delay policy
// directly; Chaos exists for transports that have no delay policy of
// their own — Chaos(UDP) injects the adversary in front of the real
// socket path. Open picks the placement.
//
// Placement in the axiom map (DESIGN.md): Chaos deliberately *breaks*
// axioms the inner transport keeps — no-loss (Drop/Blackout), no-dup
// (Dup), no-corruption (Corrupt), delay ≤ d (ExtraDelay) — which is why
// sessions over a Chaos transport should run hardened (and stabilized,
// if processes fault too).
//
// The plan should be built over chanmodel.Zero: the middleware adds the
// plan's *extra* delay on top of the inner transport's own latency, so a
// base policy that re-applies [0, d] delays would double-count. Frames
// the plan delays wait in the same delay line Mem uses.
type Chaos struct {
	inner Transport
	line  delayLine

	sendErrs atomic.Int64
}

var _ Transport = (*Chaos)(nil)

// NewChaos wraps inner with the fault plan, measuring send ticks on the
// shared clock. The wrapper owns the inner transport: closing the Chaos
// closes it.
func NewChaos(inner Transport, clock *Clock, plan *faults.Plan) *Chaos {
	c := &Chaos{inner: inner}
	c.line.start(clock, plan, c.release)
	return c
}

// Name renders the plan over the inner transport.
func (c *Chaos) Name() string {
	return fmt.Sprintf("chaos(%s)/%s", c.line.policy.Name(), c.inner.Name())
}

// Send runs the frame through the fault plan: dropped frames never reach
// the inner transport, duplicated frames reach it twice, corrupted
// frames reach it with a damaged symbol, and delayed frames are held by
// the delay line until their extra delay elapses. Frames due now go
// straight through, with no scheduler latency on the fault-free path.
func (c *Chaos) Send(f wire.Frame) error {
	due, err := c.line.push(f, true)
	for _, df := range due {
		if e := c.inner.Send(df); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// release sends a delayed frame on to the inner transport.
func (c *Chaos) release(e pending) {
	if err := c.inner.Send(e.f); err != nil {
		c.sendErrs.Add(1)
	}
}

// Deliveries passes the inner transport's delivery channels through:
// chaos is injected entirely on the send side.
func (c *Chaos) Deliveries(dir wire.Dir) <-chan wire.Frame { return c.inner.Deliveries(dir) }

// Stats reports what the plan injected so far: frames affected by any
// clause, dropped, duplicated, corrupted and delayed.
func (c *Chaos) Stats() (affected, dropped, duplicated, corrupted, delayed int) {
	return c.line.planStats()
}

// SendErrors counts inner Send failures on delayed frames, which have no
// caller left to return to — the chaos analogue of loss on the far side
// of a latency spike.
func (c *Chaos) SendErrors() int64 { return c.sendErrs.Load() }

// Close stops the delay line (frames still held are discarded, like a
// partition that never heals) and closes the inner transport.
func (c *Chaos) Close() error { return c.line.close(c.inner.Close) }

// Instrument registers the plan's injection counters and the
// middleware's own send-error count.
func (c *Chaos) Instrument(reg *obs.Registry) {
	c.line.instrumentPlan(reg)
	reg.CounterFunc("rstp_chaos_send_errors_total",
		"inner Send failures on delayed frames (loss past a latency spike)", c.SendErrors)
}
