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
	// Buffer bounds each direction's backlog: the due frames its
	// consumer has not yet read (default 1024). Storage grows with the
	// backlog and is kept for reuse; nothing is reserved up front beyond
	// a channel of at most 1024 frames. Once Buffer frames wait in one
	// direction, releases in both stop until its consumer reads, as a
	// blocking send on a Buffer-frame channel would stop them. No frame
	// is dropped.
	Buffer int
}

// defaultBuffer is MemOptions.Buffer's default and the capacity cap of
// each direction's delivery channel.
const defaultBuffer = 1024

func (o MemOptions) withDefaults() MemOptions {
	if o.D <= 0 {
		o.D = 1
	}
	if o.Delay == nil {
		o.Delay = &chanmodel.UniformRandom{D: o.D, Rand: rand.New(rand.NewSource(1))}
	}
	if o.Buffer <= 0 {
		o.Buffer = defaultBuffer
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
	m.line.out = newHandoff(m.opt.Buffer)
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

// deliver hands a due frame to its direction's consumer. It counts and
// observes the delivery first, so a consumer that takes the frame and
// reads the registry at once never sees one delivery too few.
func (m *Mem) deliver(e pending) {
	m.delivered.Add(1)
	if h := m.latency.Load(); h != nil {
		h.Observe(m.line.clock.Now() - e.sent)
	}
	m.line.out.put(e.f)
}

// Deliveries returns the delivery channel for frames traveling in dir.
func (m *Mem) Deliveries(dir wire.Dir) <-chan wire.Frame { return m.line.out.ch[dirIndex(dir)] }

// Close stops the scheduler and closes the delivery channels. Frames
// still in flight or in a backlog ring are discarded.
func (m *Mem) Close() error {
	return m.line.close(func() error {
		close(m.line.out.ch[0])
		close(m.line.out.ch[1])
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

// dirIndex maps a direction to its slot in per-direction arrays.
func dirIndex(d wire.Dir) int {
	if d == wire.RtoT {
		return 1
	}
	return 0
}

// handoff is Mem's delivery storage. Per direction, a due frame joins
// a FIFO ring and moves from there into a channel of at most
// defaultBuffer frames, which the consumer reads: at once while the
// channel has room, else from the scheduler's select as room frees.
// Only the scheduler goroutine touches the rings, so storage grows with
// the backlog instead of being reserved at construction.
type handoff struct {
	ch   [2]chan wire.Frame
	ring [2]frameRing
	// spill is Buffer less the channel's capacity. A ring holding more
	// (spill+1 frames: the one a blocking send on a Buffer-frame channel
	// would hold) stops the line's releases until it drains. A zero
	// handoff, UDP's, never stops them.
	spill int
}

func newHandoff(buffer int) handoff {
	c := min(buffer, defaultBuffer)
	h := handoff{spill: buffer - c}
	for d := range h.ch {
		h.ch[d] = make(chan wire.Frame, c)
	}
	return h
}

// put queues f behind the frames waiting in its direction and moves
// what fits into the channel.
func (h *handoff) put(f wire.Frame) {
	d := dirIndex(f.Dir)
	r := &h.ring[d]
	r.push(f, h.spill+1)
	for r.n > 0 {
		select {
		case h.ch[d] <- r.front():
			r.pop()
		default:
			return
		}
	}
}

// full reports whether a direction's ring is past spill, which holds
// further releases.
func (h *handoff) full() bool { return h.ring[0].n > h.spill || h.ring[1].n > h.spill }

// feed is the channel ring d's front goes into: nil, a select case that
// never fires, while the ring is empty.
func (h *handoff) feed(d int) chan<- wire.Frame {
	if h.ring[d].n == 0 {
		return nil
	}
	return h.ch[d]
}

// frameRing is a FIFO of frames, grown by doubling and then reused. A
// popped slot is zeroed so the ring does not pin the frame's payload.
type frameRing struct {
	buf     []wire.Frame
	head, n int
}

// push appends f, growing the ring to at most limit slots; the ring must
// hold fewer than limit frames.
func (r *frameRing) push(f wire.Frame, limit int) {
	if r.n == len(r.buf) {
		grown := make([]wire.Frame, min(max(2*len(r.buf), 64), limit))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = f
	r.n++
}

// front returns the oldest frame, or the zero frame when the ring is
// empty (a select evaluates it even when its case cannot fire).
func (r *frameRing) front() wire.Frame {
	if r.n == 0 {
		return wire.Frame{}
	}
	return r.buf[r.head]
}

// pop drops the oldest frame; the ring must not be empty.
func (r *frameRing) pop() {
	r.buf[r.head] = wire.Frame{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}
