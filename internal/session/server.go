package session

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/wire"
)

// Server is the receiver side of the mux: it demultiplexes t->r frames by
// session ID, spawns a fresh receiver automaton per new session, drives
// each off the shared clock, and evicts sessions that go idle.
type Server struct {
	mux
	refused int // frames of new sessions dropped at the MaxSessions cap
	late    int // frames of already-finished sessions dropped at the tombstone
	shed    int // sessions force-retired by the overload policy
}

// NewServer validates the config and starts the side's loop.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{}
	s.init(cfg, "receiver")
	s.unknown = s.admitLocked
	s.instrument(cfg.metrics)
	s.start()
	return s, nil
}

// admitLocked decides the fate of a frame for no active session: drop it
// at the tombstone or a refusal, or spawn its receiver. Callers hold s.mu.
func (s *Server) admitLocked(f wire.Frame) *endpoint {
	now := s.cfg.Clock.Now()
	// Frames of a retired session can still be in flight
	// (retransmissions up to D ticks behind the eviction) and must not
	// re-spawn a ghost receiver under the same ID: a ghost would pin a
	// MaxSessions slot until idle eviction (forever with IdleTicks
	// disabled) and count as a second session. They drop at the
	// tombstone.
	if _, done := s.finished[f.Session]; done {
		s.late++
		s.cfg.metrics.onLate(now, f.Session)
		return nil
	}
	// The control plane's refuse gate runs before the capacity check: at
	// the escalation ladder's refuse level and above, brand-new sessions
	// are turned away even while slots remain, so the server sheds *load*
	// before it ever has to shed *sessions*.
	admit := s.cfg.Admission == nil || s.cfg.Admission.AdmitServer(f.Session)
	if admit && len(s.active) >= s.cfg.MaxSessions {
		admit = s.cfg.Shed == ShedEvictOldestIdle && s.shedOldestLocked()
	}
	var ep *endpoint
	if admit {
		ep = s.spawnLocked(f.Session)
	}
	if ep == nil {
		s.refused++
		s.cfg.metrics.onRefuse(now, f.Session)
	}
	return ep
}

// spawnLocked builds a receiver endpoint for a new session, or returns
// nil when its pair cannot be built. Callers hold s.mu.
func (s *Server) spawnLocked(id uint32) *endpoint {
	// The pair builder needs an input only for the transmitter half,
	// which the server discards; the receiver starts empty.
	_, r, err := buildPair(s.cfg, id, nil)
	if err != nil {
		return nil
	}
	ep := newEndpoint(&s.mux, id, r)
	if s.cfg.Store != nil {
		ep.tapeKey = tapeKey(id)
		// A persisted tape means a previous incarnation of this process
		// already wrote a durable prefix of the session's output: resume
		// it, so the recovery handshake reports the right count and the
		// transmitter rewinds instead of resending delivered messages.
		if data, ok := s.cfg.Store.Load(ep.tapeKey); ok && len(data) > 0 {
			ep.resumeTape(decodeTape(data))
			s.cfg.metrics.onResume()
		}
	}
	s.addLocked(ep)
	return ep
}

// victimLocked returns the active session with the smallest key, skipping
// sessions whose tape save is still in flight (they are writing, so
// neither idle nor stalled), or nil when there is none.
func (s *Server) victimLocked(key func(*endpoint) int64) *endpoint {
	var victim *endpoint
	for _, ep := range s.order {
		if !ep.retired && !ep.saving && (victim == nil || key(ep) < key(victim)) {
			victim = ep
		}
	}
	return victim
}

// shedOldestLocked force-retires the active session that has gone
// longest without traffic, freeing its slot for a newcomer. Callers hold
// s.mu; returns false when there is nothing safe to shed. The victim's
// in-flight frames drop as late at its tombstone.
func (s *Server) shedOldestLocked() bool {
	victim := s.victimLocked(func(ep *endpoint) int64 { return ep.lastActivity })
	if victim == nil {
		return false
	}
	victim.shed = true
	s.cfg.metrics.onShed(s.cfg.Clock.Now(), victim.id)
	s.parkLocked(victim)
	s.shed++
	return true
}

// ShedOldest force-retires the longest-idle active session on demand —
// the control plane's evict-oldest-idle escalation rung, the same move
// ShedEvictOldestIdle makes at the MaxSessions high-water mark but
// triggered by measured pressure instead of a full table. Returns false
// when there is nothing to shed.
func (s *Server) ShedOldest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shedOldestLocked()
}

// RetireStalled force-retires the active session whose output tape has
// gone longest without growth — the control plane's last escalation rung,
// a watchdog force-retire on demand. The victim is marked Wedged; its
// in-flight frames die at the tombstone. Returns false when no session is
// active.
func (s *Server) RetireStalled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	victim := s.victimLocked(func(ep *endpoint) int64 { return ep.lastProgress })
	if victim == nil {
		return false
	}
	victim.markWedged(s.cfg.Clock.Now())
	s.parkLocked(victim)
	return true
}

// ActiveCount returns the number of currently live receiver sessions —
// the control plane's occupancy sensor.
func (s *Server) ActiveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// Snapshot returns the current report for a session: an active one's,
// a parked one's full final report, or else a finished session's
// tombstone (ID, Role and Finished only).
func (s *Server) Snapshot(id uint32) (Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep := s.active[id]; ep != nil {
		return ep.report(true), true
	}
	return s.retiredLocked(id)
}

// retiredLocked returns what the server still holds of a retired
// session: its parked report, or else its tombstone.
func (s *Server) retiredLocked(id uint32) (Report, bool) {
	if i := s.parkedIndex(id); i >= 0 {
		return s.parked[i], true
	}
	if _, ok := s.finished[id]; ok {
		return Report{ID: id, Role: s.role, Finished: true}, true
	}
	return Report{}, false
}

// Refused counts frames dropped because a new session would have
// exceeded MaxSessions (or its pair could not be built).
func (s *Server) Refused() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused
}

// Late counts frames dropped because their session had already finished
// — in-flight stragglers of retired sessions, never respawned.
func (s *Server) Late() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.late
}

// Shed counts sessions force-retired by the overload policy to admit
// newcomers.
func (s *Server) Shed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

// WaitWrites blocks until session id has written at least n messages,
// returning its light report. It tolerates the session not existing yet
// (frames may still be in flight).
func (s *Server) WaitWrites(ctx context.Context, id uint32, n int) (Report, error) {
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		rep, known, wake := s.peek(id, n)
		if known && rep.Writes >= n {
			return rep, nil
		}
		if known && rep.Finished {
			return rep, fmt.Errorf("session: session %d ended with %d of %d writes", id, rep.Writes, n)
		}
		var tick <-chan time.Time
		if wake == nil {
			tick = poll.C // unknown session: poll for its spawn
		}
		select {
		case <-ctx.Done():
			rep, _, _ = s.peek(id, 0)
			return rep, ctx.Err()
		case <-s.done:
			rep, _, _ = s.peek(id, 0)
			return rep, fmt.Errorf("session: server closed waiting on session %d", id)
		case <-wake:
		case <-tick:
		}
	}
}

// peek returns the session's light report and, while it is active with
// fewer than n writes, a channel closed when it reaches n or retires.
func (s *Server) peek(id uint32, n int) (rep Report, known bool, wake chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := s.active[id]
	if ep == nil {
		rep, known = s.retiredLocked(id)
		rep.Trace = nil
		return rep, known, nil
	}
	if ep.writes < n {
		if ep.waiter == nil || n < ep.waitFor {
			ep.waitFor = n
		}
		if ep.waiter == nil {
			ep.waiter = make(chan struct{})
		}
		wake = ep.waiter
	}
	return ep.report(false), true, wake
}

// Evict retires a session (if active) and hands over its full final
// report, trace included. A tape save in flight is waited for first, so
// the report holds only durable writes. A session the server retired on
// its own is claimed from the parked reports. Each report is handed over
// once: ok is false for an unknown session and for one whose report was
// already claimed or has degraded to its tombstone.
func (s *Server) Evict(id uint32) (Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep := s.active[id]; ep != nil {
		for ep.saving {
			s.landed.Wait()
		}
		if s.retireLocked(ep) {
			return ep.report(true), true
		}
	}
	i := s.parkedIndex(id)
	if i < 0 {
		return Report{}, false
	}
	rep := s.parked[i]
	s.parked = slices.Delete(s.parked, i, i+1)
	return rep, true
}

// Aggregate sums counters across every session seen so far.
func (s *Server) Aggregate() Aggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg := s.aggregateLocked()
	agg.Refused, agg.Late, agg.Shed = s.refused, s.late, s.shed
	return agg
}

// Aggregate sums per-session counters into one serving-side view.
type Aggregate struct {
	// Proto and Transport label the stack.
	Proto, Transport string
	// Sessions counts sessions ever seen; Active those still live;
	// Evicted those torn down idle; Wedged those force-retired by the
	// progress watchdog; SessionsShed those force-retired by the
	// overload policy; Resyncs sums watchdog-forced resynchronizations.
	Sessions, Active, Evicted, Wedged, SessionsShed, Resyncs int
	// Refused counts new-session frames dropped at the MaxSessions cap;
	// Late counts in-flight frames of already-finished sessions dropped
	// at the tombstone; Shed counts overload evictions performed (server
	// side only).
	Refused, Late, Shed int
	// Sends, Deliveries, Writes, Rejected and SendErrors sum the endpoint
	// counters.
	Sends, Deliveries, Writes, Rejected, SendErrors int
}

// add folds one endpoint's counters into the aggregate.
func (a *Aggregate) add(r Report) {
	a.Sessions++
	if !r.Finished {
		a.Active++
	}
	if r.Evicted {
		a.Evicted++
	}
	if r.Wedged {
		a.Wedged++
	}
	if r.Shed {
		a.SessionsShed++
	}
	a.Resyncs += r.Resyncs
	a.Sends += r.Sends
	a.Deliveries += r.Deliveries
	a.Writes += r.Writes
	a.Rejected += r.Rejected
	a.SendErrors += r.SendErrors
}

// String renders the aggregate as one report line.
func (a Aggregate) String() string {
	return fmt.Sprintf("%s over %s: %d sessions (%d active, %d evicted, %d wedged, %d shed, %d refused, %d late), %d sends (%d errored), %d deliveries, %d writes, %d rejected",
		a.Proto, a.Transport, a.Sessions, a.Active, a.Evicted, a.Wedged, a.Shed, a.Refused, a.Late,
		a.Sends, a.SendErrors, a.Deliveries, a.Writes, a.Rejected)
}
