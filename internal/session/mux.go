package session

import (
	"sync"

	"repro/internal/transport"
	"repro/internal/wire"
)

// mux is the core a Server and a Dialer share: the side's endpoints, the
// tombstones and running counters of its retired sessions, and the one
// loop goroutine that drives them. The loop
// applies every delivered frame as it arrives and, once per c2 ticks,
// steps every active endpoint in spawn order, woken by the clock's pacer.
// A side with no active endpoint leaves the pacer and takes no wake-ups.
// All endpoint state is guarded by mu, so the loop, retirement and
// readers never need a second lock.
type mux struct {
	cfg    Config
	role   string   // "transmitter" or "receiver": every endpoint of the side
	parity int64    // packet-seq parity: 1 = transmitter side (odd), 0 = receiver (even)
	dir    wire.Dir // direction of the frames this side receives
	// watchdog is the receiver side's wedge window in ticks (0 = off).
	watchdog int64
	done     chan struct{}
	wg       sync.WaitGroup // the loop plus every tape save in flight

	// unknown handles a frame for no active session, under mu: the server
	// spawns a receiver (or counts a refusal), the dialer counts a stray.
	unknown func(f wire.Frame) *endpoint
	// sem holds one token per active endpoint when the side has
	// backpressure (the dialer); nil otherwise.
	sem chan struct{}

	mu     sync.Mutex
	landed sync.Cond // broadcast when a tape save lands
	seq    int64
	active map[uint32]*endpoint
	order  []*endpoint // active endpoints in spawn order, retired ones compacted out each tick
	// lastNow is the tick of the loop's latest step round, which every
	// step of the round is stamped with, and stalled the sum of the
	// loop's stalls (see book), which idle eviction does not charge.
	lastNow, stalled int64
	// pace wakes the loop for its step rounds; pacing reports it is
	// subscribed (the side has an active endpoint), and due is the tick
	// the next round is due at.
	pace   *transport.Waiter
	pacing bool
	due    int64
	// finished is the tombstone set: the ID of every retired session, and
	// on the server of every session evicted before it spawned. A
	// finished ID is never reused (StartID) nor respawned (admitLocked).
	finished tombstones
	// retired sums the counters of every retired endpoint, folded in at
	// retirement; Aggregate adds the live ones.
	retired Aggregate
	// parked holds, oldest first, the full final reports of receivers the
	// side retired on its own, until Evict claims them. Always empty on
	// the transmitter side, whose Conn reads its own endpoint.
	parked []Report

	closeOnce sync.Once
}

func (m *mux) init(cfg Config, role string) {
	m.cfg = cfg
	m.role = role
	m.dir = wire.RtoT
	if role == "transmitter" {
		m.parity = 1
	} else {
		m.dir = wire.TtoR
		m.watchdog = int64(cfg.WatchdogK) * int64(cfg.Params.Delta1()) * cfg.Params.C2
	}
	m.done = make(chan struct{})
	m.pace = cfg.Clock.NewWaiter()
	m.landed.L = &m.mu
	m.active = make(map[uint32]*endpoint)
}

func (m *mux) start() {
	m.wg.Add(1)
	go m.loop()
}

// loop is the side's only long-lived goroutine. A closed delivery channel
// (the transport shut down) stops routing but not stepping: endpoints
// then retire on their first failed send, as the protocol contract says.
func (m *mux) loop() {
	defer m.wg.Done()
	del := m.cfg.Transport.Deliveries(m.dir)
	for {
		select {
		case <-m.done:
			return
		case f, ok := <-del:
			if !ok {
				del = nil
				continue
			}
			m.route(f)
		case <-m.pace.C:
			m.mu.Lock()
			for n := len(del); n > 0; n-- {
				m.deliverLocked(<-del)
			}
			m.roundLocked()
			m.mu.Unlock()
		}
	}
}

// roundLocked runs one step round at the tick it reads, after the
// frames already delivered have been applied, and schedules the next.
//
// The schedule holds the paper's step bounds as far as the host allows.
// Rounds are due every c2 ticks on a fixed grid; a round woken late runs
// once at its lag, which the step-lag histogram books, and is not made up
// by extra rounds. No round runs less than c1 ticks after the previous
// one, and every endpoint's step is stamped with the round's tick, so no
// endpoint steps sooner than c1 after its previous step. A side left
// with no active endpoint leaves the pacer until addLocked resumes it.
func (m *mux) roundLocked() {
	now := m.cfg.Clock.Now()
	if now < m.due { // the c1 floor rests on this reading, not the pacer's
		m.pace.Wake(m.due)
		return
	}
	m.cfg.metrics.onRound(now - m.due)
	m.tickLocked(now)
	if len(m.order) == 0 {
		m.pace.Stop()
		m.pacing = false
		return
	}
	m.due = max(m.due+m.cfg.Params.C2, now+m.cfg.Params.C1)
	m.pace.Wake(m.due)
}

// route applies one delivered frame to its session.
func (m *mux) route(f wire.Frame) {
	m.mu.Lock()
	m.deliverLocked(f)
	m.mu.Unlock()
}

func (m *mux) deliverLocked(f wire.Frame) {
	ep := m.active[f.Session]
	if ep == nil {
		if ep = m.unknown(f); ep == nil {
			return
		}
	}
	ep.apply(f)
}

// tickLocked steps every active endpoint once at tick now, in spawn
// order. An endpoint whose tape save is still in flight is skipped whole:
// it is neither stepped nor judged idle or wedged until the save lands.
func (m *mux) tickLocked(now int64) {
	m.book(now)
	live := m.order[:0]
	for _, ep := range m.order {
		if ep.retired {
			continue
		}
		if !ep.saving && !m.advance(ep) {
			m.parkLocked(ep)
			continue
		}
		live = append(live, ep)
	}
	clear(m.order[len(live):])
	m.order = live
}

// advance takes one step of ep at the round's tick and, on the receiver
// side, runs idle eviction and the watchdog. It returns false when ep
// must retire. A step that started a tape save defers both checks until
// the save lands, so no retirement reports a write before it is durable.
func (m *mux) advance(ep *endpoint) bool {
	now := m.lastNow
	if !ep.step(now) {
		return false
	}
	if m.role == "transmitter" || ep.saving {
		return true
	}
	if m.cfg.IdleTicks > 0 && ep.idle(now) > m.cfg.IdleTicks {
		ep.evicted = true
		m.cfg.metrics.onEvict(now, ep.id)
		return false
	}
	return m.watchdog <= 0 || ep.checkProgress(now, m.watchdog)
}

// book records the round's clock reading, under mu, and books a stall:
// a gap since the loop's previous reading longer than a step plus the
// channel bound d means the loop itself did not run, as under a host
// stall, and the frames due in that gap may not be released yet. The
// excess is added to stalled, so the stall is not charged to any
// endpoint as idle time.
func (m *mux) book(now int64) {
	if gap := now - m.lastNow - m.cfg.Params.C2 - m.cfg.Params.D; m.lastNow > 0 && gap > 0 {
		m.stalled += gap
	}
	m.lastNow = now
}

// addLocked makes ep active and schedules it for stepping. A side that
// had left the pacer resumes with a round at once; its idle time was no
// stall of the loop, so the stall clock restarts.
func (m *mux) addLocked(ep *endpoint) {
	m.active[ep.id] = ep
	m.order = append(m.order, ep)
	if !m.pacing {
		m.pacing, m.lastNow, m.due = true, 0, ep.start
		m.pace.Wake(m.due)
	}
}

// retireLocked moves ep from the active set to the tombstones, folds its
// counters into the side's running sums and releases its slot. It
// returns false if ep had already retired. The full final report is not
// kept here: whoever retires ep reads it from ep (Evict, Conn.Report),
// and retirements nobody asked for go through parkLocked.
func (m *mux) retireLocked(ep *endpoint) bool {
	if ep.retired {
		return false
	}
	ep.retired = true
	delete(m.active, ep.id)
	m.finished.add(ep.id)
	m.retired.add(ep.counters())
	ep.wake()
	if m.sem != nil {
		<-m.sem
	}
	return true
}

// parkLocked retires ep on the side's own initiative (idle eviction, the
// watchdog, Close). On the receiver side the full report waits
// in parked until Evict claims it. Past MaxSessions parked reports the
// oldest degrades to its tombstone, so a side nobody evicts from holds
// O(MaxSessions) traces, not one per session it ever ran.
func (m *mux) parkLocked(ep *endpoint) {
	if !m.retireLocked(ep) || m.role == "transmitter" {
		return
	}
	if len(m.parked) == m.cfg.MaxSessions {
		m.parked[0] = Report{}
		m.parked = m.parked[1:]
	}
	m.parked = append(m.parked, ep.report(true))
}

// parkedIndex returns the index of session id's parked report, or -1.
func (m *mux) parkedIndex(id uint32) int {
	for i := range m.parked {
		if m.parked[i].ID == id {
			return i
		}
	}
	return -1
}

// aggregateLocked sums the retired sessions' running counters and the
// live endpoints' current ones.
func (m *mux) aggregateLocked() Aggregate {
	agg := m.retired
	agg.Proto, agg.Transport = m.cfg.Solution.String(), m.cfg.Transport.Name()
	for _, ep := range m.order {
		if !ep.retired {
			agg.add(ep.counters())
		}
	}
	return agg
}

// closed reports whether Close has begun.
func (m *mux) closed() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// Close stops the loop, waits for it and for every tape save in flight,
// then retires the sessions still active. It does not close the transport
// (the caller owns it). Idempotent.
func (m *mux) Close() error {
	m.closeOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
		m.mu.Lock()
		// A Start that checked closed() before done closed may have
		// resumed pacing after the loop exited.
		m.pace.Stop()
		for _, ep := range m.order {
			m.parkLocked(ep)
		}
		m.order = nil
		m.mu.Unlock()
	})
	return nil
}

// tombstones is a set of finished session IDs. IDs are handed out in
// increasing order and sessions finish close to that order, so the set
// is a watermark (every ID in [1, low] has finished) plus the finished
// IDs above it: it holds O(sessions out of order), not one entry per
// session ever run.
type tombstones struct {
	low   uint32
	above map[uint32]struct{}
}

func (t *tombstones) has(id uint32) bool {
	if id != 0 && id <= t.low {
		return true
	}
	_, ok := t.above[id]
	return ok
}

func (t *tombstones) add(id uint32) {
	if t.has(id) {
		return
	}
	if id == 0 || id != t.low+1 {
		if t.above == nil {
			t.above = make(map[uint32]struct{})
		}
		t.above[id] = struct{}{}
		return
	}
	for t.low++; t.low != ^uint32(0); t.low++ {
		if _, ok := t.above[t.low+1]; !ok {
			break
		}
		delete(t.above, t.low+1)
	}
}

// len returns the number of finished IDs.
func (t *tombstones) len() int { return int(t.low) + len(t.above) }
