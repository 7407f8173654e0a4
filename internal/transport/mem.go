package transport

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/chanmodel"
	"repro/internal/obs"
	"repro/internal/wire"
)

// MemOptions configures an in-memory transport.
type MemOptions struct {
	// D is the delay bound in ticks; the default policy delivers every
	// frame within it.
	D int64
	// Delay computes each frame's arrival times (default: uniform random
	// in [0, D], seeded with 1). Substituting a *faults.Plan injects
	// loss, duplication, corruption and excess delay — the same plans the
	// simulator uses.
	Delay chanmodel.DelayPolicy
	// Buffer is the per-direction delivery channel capacity (default 1024).
	Buffer int
}

func (o MemOptions) withDefaults() MemOptions {
	if o.D <= 0 {
		o.D = 1
	}
	if o.Delay == nil {
		o.Delay = &chanmodel.UniformRandom{D: o.D, Rand: rand.New(rand.NewSource(1))}
	}
	if o.Buffer <= 0 {
		o.Buffer = 1024
	}
	return o
}

// Mem is the in-memory transport: a real-time rendering of the simulator's
// channel. Its delay line delivers frames in computed arrival-tick
// order, so even under scheduler jitter the *relative* order of
// deliveries is exactly what the delay policy (and any fault plan)
// decided — late wall-clock delivery can stretch time but never introduce
// reordering beyond the model's.
type Mem struct {
	opt  MemOptions
	line delayLine
	del  map[wire.Dir]chan wire.Frame

	sends     atomic.Int64
	delivered atomic.Int64
	// latency is wired by Instrument after construction; atomic because
	// the scheduler goroutine is already running by then.
	latency atomic.Pointer[obs.Histogram]
}

var _ Transport = (*Mem)(nil)

// NewMem starts an in-memory transport against the shared clock.
func NewMem(clock *Clock, opt MemOptions) *Mem {
	m := &Mem{opt: opt.withDefaults()}
	m.del = map[wire.Dir]chan wire.Frame{
		wire.TtoR: make(chan wire.Frame, m.opt.Buffer),
		wire.RtoT: make(chan wire.Frame, m.opt.Buffer),
	}
	m.line.start(clock, m.opt.Delay, m.deliver)
	return m
}

// Name renders the transport and its delay policy.
func (m *Mem) Name() string { return fmt.Sprintf("mem(d=%d)/%s", m.opt.D, m.opt.Delay.Name()) }

// Send computes the frame's arrival schedule under the delay policy and
// queues the deliveries.
func (m *Mem) Send(f wire.Frame) error {
	if _, err := m.line.push(f, false); err != nil {
		return err
	}
	m.sends.Add(1)
	return nil
}

// deliver pushes a due frame to its direction's channel.
func (m *Mem) deliver(e pending) bool {
	select {
	case m.del[e.f.Dir] <- e.f:
		m.delivered.Add(1)
		if h := m.latency.Load(); h != nil {
			h.Observe(m.line.clock.Now() - e.sent)
		}
		return true
	case <-m.line.done:
		return false
	}
}

// Deliveries returns the delivery channel for frames traveling in dir.
func (m *Mem) Deliveries(dir wire.Dir) <-chan wire.Frame { return m.del[dir] }

// Close stops the scheduler and closes the delivery channels. Frames
// still in flight are discarded.
func (m *Mem) Close() error {
	return m.line.close(func() error {
		close(m.del[wire.TtoR])
		close(m.del[wire.RtoT])
		return nil
	})
}

// Instrument registers the in-memory transport's counters and wires its
// send→delivery latency histogram (in ticks, against the shared clock).
// A *faults.Plan delay policy also registers its injection counters, so
// the histogram and the counters both see what the plan did.
func (m *Mem) Instrument(reg *obs.Registry) {
	reg.CounterFunc("rstp_mem_sends_total",
		"frames accepted by the in-memory transport", m.sends.Load)
	reg.CounterFunc("rstp_mem_delivered_total",
		"frames delivered by the in-memory scheduler", m.delivered.Load)
	m.latency.Store(reg.Histogram("rstp_transport_delivery_ticks",
		"send-to-delivery latency in ticks", obs.TickBuckets(0)))
	m.line.instrumentPlan(reg)
}
