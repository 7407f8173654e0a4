package session

import (
	"context"
	"fmt"

	"repro/internal/wire"
)

// Dialer is the transmitter side of the mux: Start opens a session and
// drives a fresh transmitter automaton over the shared transport. r->t
// frames (acks, control traffic) are demultiplexed back to their
// session.
//
// The MaxSessions semaphore is the serving stack's admission mechanism.
// Start parks while every slot is held; the semaphore is a buffered
// channel, so a freed slot goes to the longest-parked Start and no dial
// waits behind later ones. A Dialer capped at its Server's MaxSessions
// keeps excess load queued before it sends a frame, which holds a
// congested link inside the delay bound d the effort bounds rest on.
type Dialer struct {
	mux
	nextID uint32 // last allocated session ID
	stray  int    // r->t frames with no active session
}

// NewDialer validates the config and starts the side's loop.
func NewDialer(cfg Config) (*Dialer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Dialer{}
	d.init(cfg, "transmitter")
	d.sem = make(chan struct{}, cfg.MaxSessions)
	d.unknown = func(wire.Frame) *endpoint {
		d.stray++
		return nil
	}
	d.instrument(cfg.metrics)
	d.start()
	return d, nil
}

// Conn is one open transmitter-side session.
type Conn struct {
	d  *Dialer
	ep *endpoint
	x  []wire.Bit
}

// ID returns the session ID carried in every frame.
func (c *Conn) ID() uint32 { return c.ep.id }

// X returns the session's input sequence.
func (c *Conn) X() []wire.Bit { return append([]wire.Bit(nil), c.x...) }

// Report snapshots the transmitter endpoint; once the session is closed
// it is the final report. The Conn is the only holder of that report:
// the dialer keeps just the session's tombstone and counters.
func (c *Conn) Report() Report {
	c.d.mu.Lock()
	defer c.d.mu.Unlock()
	return c.ep.report(true)
}

// Close retires the session and releases its backpressure slot.
// Idempotent.
func (c *Conn) Close() {
	c.d.mu.Lock()
	defer c.d.mu.Unlock()
	c.d.retireLocked(c.ep)
}

// Start opens a new session for input x. It blocks while MaxSessions
// sessions are already open — the admission contract — until a slot
// frees (to the longest-blocked Start first), the context is done, or
// the dialer closes.
func (d *Dialer) Start(ctx context.Context, x []wire.Bit) (*Conn, error) {
	return d.open(ctx, 0, x)
}

// StartID opens a session under a caller-chosen ID — the restart path:
// a recovering process must reuse the IDs of the sessions it was
// serving so their frames route to the same durable keys in
// Config.Store. id must be nonzero and never used by this Dialer before;
// the automatic allocator is advanced past it so later Start calls never
// collide with resumed sessions.
func (d *Dialer) StartID(ctx context.Context, id uint32, x []wire.Bit) (*Conn, error) {
	if id == 0 {
		return nil, fmt.Errorf("session: StartID requires a nonzero session id")
	}
	return d.open(ctx, id, x)
}

func (d *Dialer) open(ctx context.Context, id uint32, x []wire.Bit) (*Conn, error) {
	select {
	case d.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-d.done:
		return nil, fmt.Errorf("session: dialer closed")
	}
	// select picks at random among ready cases: a free slot does not
	// outrank a context that has already ended.
	if err := ctx.Err(); err != nil {
		<-d.sem
		return nil, err
	}
	d.mu.Lock()
	auto := id == 0
	if auto {
		d.nextID++
		id = d.nextID
	} else {
		d.nextID = max(d.nextID, id)
		// A finished ID is refused like an open one: the server drops
		// its frames at the tombstone, so a second session under it could
		// never complete.
		_, live := d.active[id]
		used := d.finished.has(id)
		if live || used {
			d.mu.Unlock()
			<-d.sem
			return nil, fmt.Errorf("session: session %d already used", id)
		}
	}
	d.mu.Unlock()
	// From here on a failed open must free the slot, or the cap would
	// count a phantom session for good. An allocated ID that opens no
	// session is tombstoned all the same: the tombstone set is a
	// watermark over IDs handed out in order, and an ID that never
	// finished would hold it back for good.
	abort := func(err error) (*Conn, error) {
		if auto {
			d.mu.Lock()
			d.finished.add(id)
			d.mu.Unlock()
		}
		<-d.sem
		return nil, err
	}
	t, _, err := buildPair(d.cfg, id, x)
	if err != nil {
		return abort(err)
	}
	d.mu.Lock()
	if d.closed() {
		d.mu.Unlock()
		return abort(fmt.Errorf("session: dialer closed"))
	}
	ep := newEndpoint(&d.mux, id, t)
	d.addLocked(ep)
	d.mu.Unlock()
	return &Conn{d: d, ep: ep, x: append([]wire.Bit(nil), x...)}, nil
}

// InFlight returns the number of currently open sessions.
func (d *Dialer) InFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.active)
}

// Stray counts r->t frames that arrived for no active session.
func (d *Dialer) Stray() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stray
}

// Aggregate sums counters across every session opened so far.
func (d *Dialer) Aggregate() Aggregate {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.aggregateLocked()
}
