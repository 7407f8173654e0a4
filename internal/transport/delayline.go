package transport

import (
	"sync"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wire"
)

// pending is one scheduled delivery.
type pending struct {
	at   int64 // arrival tick
	tie  int64 // insertion order, breaking same-tick ties FIFO
	sent int64 // send tick, for delivery-latency observation
	f    wire.Frame
}

// pendingHeap is a min-heap of pending deliveries in (at, tie) order.
// It is typed rather than driven through container/heap, whose
// Push(any)/Pop() any would box every pending twice.
type pendingHeap []pending

func (h pendingHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tie < h[j].tie
}

// push adds e and restores the heap order.
func (h *pendingHeap) push(e pending) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the least pending; the heap must not be
// empty. The vacated slot is zeroed so the backing array does not pin
// the frame's payload.
func (h *pendingHeap) pop() pending {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = pending{}
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(r, c) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// delayLine is the one release scheduler behind Mem and a UDP with a
// fault plan. A delay policy computes each frame's arrival ticks at
// send time, a heap holds them in (arrival tick, send order), and a
// single goroutine hands each to release once its tick has begun. Late
// wall-clock release can stretch time but never reorders beyond what
// the policy decided.
//
// The policy's clock starts at the line's first frame: it sees send
// ticks counted from that frame's tick, and its arrivals are shifted
// back onto the shared clock. So a fault window [from, to) covers the
// transport's own traffic from its first frame on, however long the
// process took between starting the clock and sending, as the
// simulator's windows cover a run from its first step.
//
// Policies and fault plans keep internal rand/stats state, so every
// policy call is serialised under mu: a seeded plan is exactly as
// deterministic as in the simulator for a fixed send schedule.
type delayLine struct {
	clock  *Clock
	policy chanmodel.DelayPolicy
	// release hands a due frame on. It must not wait on a consumer: Mem
	// feeds its consumers through out, whose backlog the scheduler
	// drains from the select it waits in.
	release func(pending)
	// out is Mem's per-direction delivery storage. A UDP's line writes
	// to the socket and leaves it zero, so its send cases never fire;
	// UDP's own handoff sits behind its socket readers.
	out handoff

	mu      sync.Mutex
	heap    pendingHeap
	nextTie int64
	anchor  int64    // tick of the first frame; -1 before it
	dirSeq  [2]int64 // per-direction policy sequence numbers
	closed  bool

	wake chan struct{}
	done chan struct{}
	dead chan struct{} // closed when the scheduler has exited

	closeOnce sync.Once
}

// start wires the line and launches its scheduler goroutine.
func (l *delayLine) start(clock *Clock, policy chanmodel.DelayPolicy, release func(pending)) {
	l.clock, l.policy, l.release = clock, policy, release
	l.anchor = -1
	l.wake = make(chan struct{}, 1)
	l.done = make(chan struct{})
	l.dead = make(chan struct{})
	go l.run()
}

// push runs f through the policy and heaps its arrivals. With bypass
// set, arrivals already due are returned for the caller to pass on
// directly instead of waiting for the scheduler.
//
// The send tick is read under mu, the lock the scheduler pops under, so
// a frame is never stamped with a tick older than a release that has
// already happened: a sender stalled between reading the clock and
// taking the lock could otherwise heap an arrival earlier than a frame
// already handed on.
func (l *delayLine) push(f wire.Frame, bypass bool) (due []wire.Frame, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	now := l.clock.Now()
	if l.anchor < 0 {
		l.anchor = now
	}
	di := dirIndex(f.Dir)
	seq := l.dirSeq[di]
	l.dirSeq[di]++
	queued := len(l.heap)
	if mut, ok := l.policy.(chanmodel.Mutator); ok {
		for _, a := range mut.ArrivalsMut(seq, now-l.anchor, f.Dir, f.P) {
			df := f
			df.P = a.P
			at := a.At + l.anchor
			if bypass && at <= now {
				due = append(due, df)
				continue
			}
			l.add(at, now, df)
		}
	} else {
		for _, at := range l.policy.Arrivals(seq, now-l.anchor, f.Dir, f.P) {
			at += l.anchor
			if bypass && at <= now {
				due = append(due, f)
				continue
			}
			l.add(at, now, f)
		}
	}
	heaped := len(l.heap) > queued
	l.mu.Unlock()
	if heaped {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	return due, nil
}

// add heaps one arrival; the caller holds mu.
func (l *delayLine) add(at, sent int64, f wire.Frame) {
	l.heap.push(pending{at: at, tie: l.nextTie, sent: sent, f: f})
	l.nextTie++
}

// close stops the scheduler, discarding frames still held (a partition
// that never heals), waits for it to exit and then runs then. Only the
// first call does anything; later calls return nil.
func (l *delayLine) close(then func() error) (err error) {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		close(l.done)
		<-l.dead
		err = then()
	})
	return err
}

// run is the scheduler goroutine: it pops pending frames in (arrival
// tick, insertion order) and releases each, sleeping until the next
// arrival is due on the clock's pacer. Its waiter subscribes at the
// first wait and stays until the line closes, so a line that empties and
// refills does not restart the pacer; an empty line arms nothing and
// costs no wake-ups. A frame is popped only under mu and only once
// clock.Until says its tick has begun, so a stale wake can cost a loop
// but never release a frame early.
//
// The same select moves out's backlog into its channels, one send case
// per direction with frames waiting (a nil channel otherwise). While a
// direction's backlog is over its bound the line releases nothing and
// waits only on those sends.
func (l *delayLine) run() {
	defer close(l.dead)
	pace := l.clock.NewWaiter()
	defer pace.Stop()
	out := &l.out
	for {
		var have, due bool
		var at int64
		var next pending
		if !out.full() {
			l.mu.Lock()
			if have = len(l.heap) > 0; have {
				at = l.heap[0].at
				if due = l.clock.Until(at) <= 0; due {
					next = l.heap.pop()
				}
			}
			l.mu.Unlock()
		}
		if due {
			l.release(next)
			continue
		}
		var tick <-chan struct{}
		if have {
			pace.Wake(at)
			tick = pace.C
		}
		select {
		case <-l.done:
			return
		case <-l.wake:
			// An earlier arrival may have been queued; re-evaluate.
		case <-tick:
		case out.feed(0) <- out.ring[0].front():
			out.ring[0].pop()
		case out.feed(1) <- out.ring[1].front():
			out.ring[1].pop()
		}
	}
}

// planStats reports what the line's fault plan injected so far (all
// zero when the policy is not a *faults.Plan).
func (l *delayLine) planStats() (affected, dropped, duplicated, corrupted, delayed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if plan, ok := l.policy.(*faults.Plan); ok {
		return plan.Stats()
	}
	return
}

// instrumentPlan registers the injection counters of a *faults.Plan
// policy, which read the same whether the line is Mem's or UDP's.
// Other policies register nothing.
func (l *delayLine) instrumentPlan(reg *obs.Registry) {
	if _, ok := l.policy.(*faults.Plan); !ok {
		return
	}
	stat := func(pick func(a, dr, du, co, de int) int) func() int64 {
		return func() int64 {
			a, dr, du, co, de := l.planStats()
			return int64(pick(a, dr, du, co, de))
		}
	}
	reg.CounterFunc("rstp_chaos_affected_total",
		"frames touched by any fault clause", stat(func(a, _, _, _, _ int) int { return a }))
	reg.CounterFunc("rstp_chaos_dropped_total",
		"frames dropped by the fault plan", stat(func(_, dr, _, _, _ int) int { return dr }))
	reg.CounterFunc("rstp_chaos_duplicated_total",
		"frames duplicated by the fault plan", stat(func(_, _, du, _, _ int) int { return du }))
	reg.CounterFunc("rstp_chaos_corrupted_total",
		"frames corrupted by the fault plan", stat(func(_, _, _, co, _ int) int { return co }))
	reg.CounterFunc("rstp_chaos_delayed_total",
		"frames held past their natural arrival by the fault plan", stat(func(_, _, _, _, de int) int { return de }))
}
