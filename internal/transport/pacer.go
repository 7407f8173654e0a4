package transport

import (
	"sync"
	"time"
)

// pacer is a Clock's one precise wake-up source. Every serving wait on
// the clock (a side's step rounds, a delay line's next release) is a
// Waiter armed for a tick; one goroutine sleeps on one platform alarm set
// for the earliest armed tick and signals each waiter whose tick has
// begun. The goroutine and its alarm exist only while some waiter is
// subscribed: the first Wake starts them and the last Stop ends them, so
// an idle clock costs no wake-ups and a clock nobody waits on costs
// nothing at all.
//
// Waits are paced by the alarm rather than by a runtime timer because
// Go's netpoller sleeps in whole milliseconds: it rounds a timer due
// sooner than 1 ms up to 1 ms, which at a 50 µs tick is 20 ticks late.
type pacer struct {
	mu      sync.Mutex
	waiters []*Waiter // subscribed waiters, armed or not
	alarm   alarm     // nil while no waiter is subscribed
	set     int64     // deadline the alarm is set for (ns since the clock's start); -1 for none
	exited  chan struct{}
	fires   int64 // alarm wake-ups so far
}

// alarm is a platform's one-shot wake-up at a deadline on the clock.
type alarm interface {
	// set arms the alarm for at ns since the clock's start, replacing any
	// earlier setting; a deadline already past fires at once.
	set(at int64)
	// wait blocks until the alarm fires and reports true, or until close
	// and reports false. A fire may be stale (set was moved since);
	// callers re-check the time.
	wait() bool
	close()
}

// A Waiter is one wait site's subscription to its Clock's pacer. Wake
// arms it for a tick and C receives once that tick has begun; Stop ends
// the subscription. Wake and Stop may be called from any goroutine; the
// latest call decides what C answers.
type Waiter struct {
	// C receives one value once the tick of the latest Wake has begun. It
	// has capacity one, and Wake and Stop drain it, so a value read from C
	// never answers an earlier Wake.
	C <-chan struct{}
	c chan struct{}

	clock      *Clock
	due        int64 // armed deadline, ns since the clock's start
	armed      bool
	subscribed bool
}

// NewWaiter returns an unsubscribed waiter on the clock's pacer.
// Constructing one starts nothing.
func (c *Clock) NewWaiter() *Waiter {
	ch := make(chan struct{}, 1)
	return &Waiter{C: ch, c: ch, clock: c}
}

// PacerFires returns how many times the clock's pacer has woken since
// the clock started. It stays put while no waiter is armed.
func (c *Clock) PacerFires() int64 {
	c.pace.mu.Lock()
	defer c.pace.mu.Unlock()
	return c.pace.fires
}

// since is the wall time elapsed since the clock started, in ns.
func (c *Clock) since() int64 { return int64(time.Since(c.start)) }

// Wake arms w for the start of tick, subscribing it to the pacer if it
// is not already. A tick that has already begun is signalled at once.
func (w *Waiter) Wake(tick int64) {
	c := w.clock
	p := &c.pace
	at := int64(c.Ticks(tick))
	p.mu.Lock()
	defer p.mu.Unlock()
	w.drain()
	if !w.subscribed {
		w.subscribed = true
		p.waiters = append(p.waiters, w)
		if p.alarm == nil {
			p.start(c)
		}
	}
	if at <= c.since() {
		w.armed = false
		w.c <- struct{}{}
		return
	}
	w.due, w.armed = at, true
	if p.set < 0 || at < p.set {
		p.set = at
		p.alarm.set(at)
	}
}

// Stop disarms w and ends its subscription. When w was the pacer's last
// subscriber, Stop returns once the pacer's goroutine has exited.
// Stopping an unsubscribed waiter does nothing.
func (w *Waiter) Stop() {
	p := &w.clock.pace
	p.mu.Lock()
	w.drain()
	w.armed = false
	if !w.subscribed {
		p.mu.Unlock()
		return
	}
	w.subscribed = false
	for i, s := range p.waiters {
		if s == w {
			last := len(p.waiters) - 1
			p.waiters[i], p.waiters[last] = p.waiters[last], nil
			p.waiters = p.waiters[:last]
			break
		}
	}
	var exited chan struct{}
	if len(p.waiters) == 0 {
		p.alarm.close()
		p.alarm, p.set, exited = nil, -1, p.exited
	}
	p.mu.Unlock()
	if exited != nil {
		<-exited
	}
}

// drain empties C of a signal nobody read; the caller holds the pacer's
// lock, which every send on C is made under.
func (w *Waiter) drain() {
	select {
	case <-w.c:
	default:
	}
}

// start sets up the platform alarm and launches the pacer goroutine; the
// caller holds mu.
func (p *pacer) start(c *Clock) {
	p.alarm, p.set = newAlarm(c), -1
	p.exited = make(chan struct{})
	go p.run(c, p.alarm, p.exited)
}

// run is the pacer goroutine: on each alarm wake-up it signals every
// armed waiter whose deadline has passed and sets the alarm for the
// earliest deadline left. It exits when its alarm is closed.
func (p *pacer) run(c *Clock, a alarm, exited chan struct{}) {
	defer close(exited)
	for a.wait() {
		p.mu.Lock()
		if p.alarm != a { // closed by the last Stop while this fire raced it
			p.mu.Unlock()
			return
		}
		p.fires++
		now, next := c.since(), int64(-1)
		for _, w := range p.waiters {
			switch {
			case !w.armed:
			case w.due <= now:
				w.armed = false
				w.c <- struct{}{} // never blocks: drained when armed
			case next < 0 || w.due < next:
				next = w.due
			}
		}
		p.set = next
		if next >= 0 {
			a.set(next)
		}
		p.mu.Unlock()
	}
}

// timerAlarm is the portable alarm, a runtime timer: on platforms
// without a precise one it gives the runtime's timer granularity.
type timerAlarm struct {
	clock *Clock
	t     *time.Timer
	stop  chan struct{}
}

func newTimerAlarm(c *Clock) *timerAlarm {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerAlarm{clock: c, t: t, stop: make(chan struct{})}
}

func (a *timerAlarm) set(at int64) { a.t.Reset(time.Duration(at - a.clock.since())) }

func (a *timerAlarm) wait() bool {
	select {
	case <-a.t.C:
		return true
	case <-a.stop:
		return false
	}
}

func (a *timerAlarm) close() {
	a.t.Stop()
	close(a.stop)
}
