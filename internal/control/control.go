// Package control is the serving stack's occupancy gate: it holds new
// dials while the receiver side is at its session target, so waiting
// work queues silently before it sends a frame instead of crowding a
// link that already carries as many sessions as it can. That keeps the
// channel inside the paper's delay bound d (Δ(C)), on which every
// effort bound rests.
//
// The controller admits; it does not choose the protocol, and it never
// ends an admitted session. Every session runs the mux's
// Config.Solution, and once a session is in only the mux's own watchdog
// can retire it early.
//
// Every decision is observable (the rstp_control_* metrics and the
// "control" live hook, served at /control) and every random choice (the
// gate's poll jitter) comes from a seeded RNG, so a run is reproducible
// from its seed.
package control

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/transport"
)

// Config assembles a Controller. Every field but Seed is required; the
// actuators are late-bound with Bind because the mux that provides them
// needs the controller at its own construction.
type Config struct {
	// Registry is the obs registry the controller's rstp_control_*
	// metrics and "control" live hook go to.
	Registry *obs.Registry
	// Clock is the tick source shared with the transports and sessions.
	Clock *transport.Clock
	// Params are the timing constants: a parked Admit polls every d to
	// 2d ticks.
	Params rstp.Params
	// Seed seeds the poll jitter RNG (default 1).
	Seed int64
	// TargetSessions is the occupancy at which Admit parks new sessions.
	// A dialer that would otherwise burn its whole per-session budget
	// waiting for a receiver slot instead queues before transmitting a
	// single frame, keeping the channel clear for the sessions that do
	// hold slots.
	TargetSessions int
}

// Actuators are the mux-side hooks the controller reads. They are bound
// after construction (Bind) because the Server that provides them is
// itself built with the controller already in hand.
type Actuators struct {
	// Active reports live receiver-session occupancy
	// (Server.ActiveCount), which the gate compares against
	// Config.TargetSessions; nil leaves the gate counting only the
	// controller's own in-flight admissions.
	Active func() int64
}

// Controller implements session.AdmissionController. Create with New,
// wire as Config.Admission on both mux sides, then Bind the actuators.
type Controller struct {
	cfg      Config
	done     chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	acts Actuators
	rng  *rand.Rand
	// admitted holds the IDs Admit let in and Forget has not dropped:
	// the gate counts them as in flight.
	admitted         map[uint32]struct{}
	gated, gateTicks int64
}

// New validates the config and registers the controller's metrics.
func New(cfg Config) (*Controller, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("control: Config.Registry required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("control: Config.Clock required")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.TargetSessions <= 0 {
		return nil, fmt.Errorf("control: Config.TargetSessions must be > 0, got %d", cfg.TargetSessions)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c := &Controller{
		cfg:      cfg,
		done:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		admitted: make(map[uint32]struct{}),
	}
	c.instrument(cfg.Registry)
	return c, nil
}

// Bind installs the actuators.
func (c *Controller) Bind(a Actuators) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acts = a
}

// Stop releases every Admit parked at the gate, now and later: they
// admit rather than wedge their dialer. Idempotent.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.done) })
}

// Admit implements session.AdmissionController: it parks while the
// occupancy is at Config.TargetSessions, then records the ID as
// admitted. Occupancy is the larger of the live receiver sessions
// (Active) and this controller's own in-flight admissions: a dial
// released from the gate takes a whole channel round-trip to show up in
// Active, and gating on Active alone would release every waiter into
// that blind window at once. The in-flight count is checked and the ID
// recorded under one hold of c.mu, so waiters released together cannot
// all pass on the same count. Active is called outside c.mu, because
// Server.ActiveCount takes the server's lock and the server calls Forget
// (which takes c.mu) while holding it. An Admit whose context has ended
// records nothing and returns the context's error, even if the gate is
// open.
func (c *Controller) Admit(ctx context.Context, id uint32) error {
	d := c.cfg.Params.D
	released := false // Stop released the gate
	for first := true; ; first = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		act := c.acts.Active
		c.mu.Unlock()
		var active int64
		if act != nil {
			active = act()
		}
		c.mu.Lock()
		if released || max(int64(len(c.admitted)), active) < int64(c.cfg.TargetSessions) {
			c.admitted[id] = struct{}{}
			c.mu.Unlock()
			return nil
		}
		if first {
			c.gated++
		}
		wait := d + c.rng.Int63n(d+1)
		c.gateTicks += wait
		c.mu.Unlock()
		var err error
		if released, err = c.sleepTicks(ctx, wait); err != nil {
			return err
		}
	}
}

// sleepTicks blocks for the given tick count. It reports stopped=true
// when the controller stopped mid-sleep and a non-nil err when the
// caller's context died.
func (c *Controller) sleepTicks(ctx context.Context, ticks int64) (stopped bool, err error) {
	t := time.NewTimer(c.cfg.Clock.Ticks(ticks))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false, ctx.Err()
	case <-c.done:
		return true, nil
	case <-t.C:
		return false, nil
	}
}

// Forget implements session.AdmissionController: the ID is no longer
// admitted.
func (c *Controller) Forget(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.admitted, id)
}

// State is the controller's introspection snapshot: the "control" live
// hook renders it at /control.
type State struct {
	// Gated counts admissions that parked at the gate at least once.
	Gated int64 `json:"gated"`
	// GateTicks sums the ticks parked admissions were told to wait.
	GateTicks int64 `json:"gate_ticks"`
}

// State snapshots the controller.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return State{Gated: c.gated, GateTicks: c.gateTicks}
}

// instrument registers the controller's metrics: both gate counters as
// rstp_control_* series, plus the "control" live hook.
func (c *Controller) instrument(reg *obs.Registry) {
	reg.CounterFunc("rstp_control_gated_total",
		"admissions held at the occupancy gate", func() int64 { return c.State().Gated })
	reg.CounterFunc("rstp_control_gate_ticks_total",
		"total occupancy-gate wait injected, in ticks", func() int64 { return c.State().GateTicks })
	reg.Live("control", func() any { return c.State() })
}
