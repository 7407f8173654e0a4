package session

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/wire"
)

// Server is the receiver side of the mux: it demultiplexes t->r frames by
// session ID, spawns a fresh receiver automaton per new session, drives
// each off the shared clock, and evicts sessions that go idle.
type Server struct {
	mux
	refused int // frames of new sessions dropped at the MaxSessions cap
	late    int // frames of already-finished sessions dropped at the tombstone
	// spawnWaits parks WaitWrites callers on sessions not spawned yet;
	// spawnLocked closes and drops the entry of the ID it spawns.
	spawnWaits map[uint32]*spawnWait
}

// spawnWait is the channel the WaitWrites callers of one unspawned
// session park on, how many callers hold it, and the most writes any of
// them waits for, to size the receiver's tape at spawn.
type spawnWait struct {
	ch      chan struct{}
	holders int
	tape    int
}

// NewServer validates the config and starts the side's loop.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{spawnWaits: make(map[uint32]*spawnWait)}
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
	if s.finished.has(f.Session) {
		s.late++
		s.cfg.metrics.onLate(now, f.Session)
		return nil
	}
	// At the MaxSessions cap the newcomer is refused; its own
	// retransmissions land once a slot frees.
	var ep *endpoint
	if len(s.active) < s.cfg.MaxSessions {
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
	var tape int
	if w := s.spawnWaits[id]; w != nil {
		tape = w.tape
	}
	s.wakeSpawnWaitsLocked(id)
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
	ep.sizeTape(tape)
	s.addLocked(ep)
	return ep
}

// wakeSpawnWaitsLocked wakes the WaitWrites callers parked on session id
// not having spawned: it just spawned, or never will. Callers hold s.mu.
func (s *Server) wakeSpawnWaitsLocked(id uint32) {
	if w := s.spawnWaits[id]; w != nil {
		close(w.ch)
		delete(s.spawnWaits, id)
	}
}

// ActiveCount returns the number of currently live receiver sessions.
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
	if s.finished.has(id) {
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

// WaitWrites blocks until session id has written at least n messages,
// returning its light report. It tolerates the session not existing yet
// (frames may still be in flight): the caller parks until the server
// spawns it. The receiver's output tape is given room for n writes in
// one allocation, at spawn or at once, so a caller waiting for a whole
// transfer never has it grow write by write.
func (s *Server) WaitWrites(ctx context.Context, id uint32, n int) (Report, error) {
	for {
		rep, known, wake := s.peek(id, n)
		if known && rep.Writes >= n {
			return rep, nil
		}
		if known && rep.Finished {
			return rep, fmt.Errorf("session: session %d ended with %d of %d writes", id, rep.Writes, n)
		}
		select {
		case <-ctx.Done():
			return s.giveUp(id, wake), ctx.Err()
		case <-s.done:
			return s.giveUp(id, wake), fmt.Errorf("session: server closed waiting on session %d", id)
		case <-wake:
		}
	}
}

// peek returns the session's light report and, while it has fewer than
// n writes, a channel closed when that may have changed: when an active
// session reaches n or retires, or when an unknown one spawns. The
// caller then holds the unknown session's spawn channel until it spawns
// or giveUp releases it.
func (s *Server) peek(id uint32, n int) (rep Report, known bool, wake chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := s.active[id]
	if ep == nil {
		rep, known = s.retiredLocked(id)
		rep.Trace = nil
		if !known {
			w := s.spawnWaits[id]
			if w == nil {
				w = &spawnWait{ch: make(chan struct{})}
				s.spawnWaits[id] = w
			}
			w.holders++
			w.tape = max(w.tape, n)
			wake = w.ch
		}
		return rep, known, wake
	}
	ep.sizeTape(n)
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

// giveUp returns the session's light report to a WaitWrites caller that
// stops waiting, and drops the caller's hold on the spawn channel wake if
// the session has still not spawned; the entry goes with its last holder.
func (s *Server) giveUp(id uint32, wake chan struct{}) Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.spawnWaits[id]; w != nil && w.ch == wake {
		if w.holders--; w.holders == 0 {
			delete(s.spawnWaits, id)
		}
	}
	if ep := s.active[id]; ep != nil {
		return ep.report(false)
	}
	rep, _ := s.retiredLocked(id)
	rep.Trace = nil
	return rep
}

// Evict retires a session (if active) and hands over its full final
// report, trace included. A tape save in flight is waited for first, so
// the report holds only durable writes. A session the server retired on
// its own is claimed from the parked reports. Each report is handed over
// once: ok is false for an unknown session and for one whose report was
// already claimed or has degraded to its tombstone. An ID the server
// never spawned is tombstoned all the same, so the frames of a session
// given up before its first frame landed drop as late instead of
// spawning a ghost receiver.
func (s *Server) Evict(id uint32) (Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ep := s.active[id]; ep != nil {
		for ep.saving {
			s.landed.Wait()
		}
		if s.releaseLocked(ep) {
			return ep.report(true), true
		}
	}
	i := s.parkedIndex(id)
	if i < 0 {
		s.finished.add(id)
		s.wakeSpawnWaitsLocked(id)
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
	agg.Refused, agg.Late = s.refused, s.late
	return agg
}

// Aggregate sums per-session counters into one serving-side view.
type Aggregate struct {
	// Proto and Transport label the stack.
	Proto, Transport string
	// Sessions counts sessions ever seen; Active those still live;
	// Evicted those torn down idle; Wedged those force-retired by the
	// progress watchdog; Resyncs sums watchdog-forced resynchronizations.
	Sessions, Active, Evicted, Wedged, Resyncs int
	// Refused counts new-session frames dropped at the MaxSessions cap;
	// Late counts in-flight frames of already-finished sessions dropped
	// at the tombstone (server side only).
	Refused, Late int
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
	a.Resyncs += r.Resyncs
	a.Sends += r.Sends
	a.Deliveries += r.Deliveries
	a.Writes += r.Writes
	a.Rejected += r.Rejected
	a.SendErrors += r.SendErrors
}

// String renders the aggregate as one report line.
func (a Aggregate) String() string {
	return fmt.Sprintf("%s over %s: %d sessions (%d active, %d evicted, %d wedged, %d refused, %d late), %d sends (%d errored), %d deliveries, %d writes, %d rejected",
		a.Proto, a.Transport, a.Sessions, a.Active, a.Evicted, a.Wedged, a.Refused, a.Late,
		a.Sends, a.SendErrors, a.Deliveries, a.Writes, a.Rejected)
}
