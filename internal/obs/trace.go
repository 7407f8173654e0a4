package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// EventKind names one protocol transition in the trace ring. The set
// covers the serving stack's lifecycle: frame movement (send/recv/write),
// the reliability layers' recovery (retransmit, resync), and the mux's
// session verdicts (evict/wedge/refuse/late).
type EventKind uint8

const (
	// EvSend is a transport send committed by an endpoint (arg: packet seq).
	EvSend EventKind = iota + 1
	// EvRecv is a frame delivered into an endpoint (arg: packet seq).
	EvRecv
	// EvWrite is one message written to the output tape (arg: tape length).
	EvWrite
	// EvRetransmit is a reliability-layer retransmission (arg: attempt or seq).
	EvRetransmit
	// EvResync is a stabilizing-layer resynchronization (arg: epoch if known).
	EvResync
	// EvEvict is an idle eviction of a session.
	EvEvict
	// EvWedge is a watchdog force-retire (no output growth in the window).
	EvWedge
	// EvRefuse is a new session refused at the MaxSessions cap.
	EvRefuse
	// EvLate is an in-flight frame of a finished session dropped at the
	// tombstone.
	EvLate
)

var eventKindNames = [...]string{
	EvSend:       "send",
	EvRecv:       "recv",
	EvWrite:      "write",
	EvRetransmit: "retransmit",
	EvResync:     "resync",
	EvEvict:      "evict",
	EvWedge:      "wedge",
	EvRefuse:     "refuse",
	EvLate:       "late",
}

// String names the kind for exports.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// TraceEvent is one recorded protocol transition. All fields are scalar
// so recording never allocates per event.
type TraceEvent struct {
	// Tick is the shared clock's tick at the event.
	Tick int64 `json:"tick"`
	// Session is the session ID (0 for transport-scoped events).
	Session uint32 `json:"session"`
	// Kind is the transition.
	Kind EventKind `json:"-"`
	// KindName renders Kind in JSON exports.
	KindName string `json:"kind"`
	// Arg is the kind-specific detail (packet seq, tape length, epoch).
	Arg int64 `json:"arg"`
}

// ring is one session's bounded event buffer: the most recent cap events
// are kept, older ones overwritten.
type ring struct {
	buf     []TraceEvent
	next    int
	wrapped bool
	total   int64 // events ever recorded for the session
}

func (rg *ring) push(e TraceEvent) {
	rg.buf[rg.next] = e
	rg.next++
	rg.total++
	if rg.next == len(rg.buf) {
		rg.next = 0
		rg.wrapped = true
	}
}

// events returns the ring's contents in record order.
func (rg *ring) events() []TraceEvent {
	if !rg.wrapped {
		return append([]TraceEvent(nil), rg.buf[:rg.next]...)
	}
	out := make([]TraceEvent, 0, len(rg.buf))
	out = append(out, rg.buf[rg.next:]...)
	out = append(out, rg.buf[:rg.next]...)
	return out
}

// Tracer records protocol transitions into bounded per-session rings.
// Disabled (the default) it costs one atomic load per call and never
// allocates; enabled it takes one mutex per event — tracing is an
// explicitly opt-in debugging channel, not a hot-path metric.
type Tracer struct {
	enabled atomic.Bool

	mu          sync.Mutex
	perSession  int
	maxSessions int
	rings       map[uint32]*ring
	dropped     int64 // events dropped at the session-count cap
}

// Default tracer capacity: events kept per session, and distinct
// sessions tracked before further sessions' events are dropped (counted,
// never recorded — the bound is what keeps a million-session process
// from trading its heap for a trace).
const (
	DefaultTraceEvents   = 256
	DefaultTraceSessions = 4096
)

func newTracer() *Tracer {
	return &Tracer{
		perSession:  DefaultTraceEvents,
		maxSessions: DefaultTraceSessions,
		rings:       make(map[uint32]*ring),
	}
}

// Enable turns tracing on with the given per-session ring capacity and
// session cap (non-positive values take the defaults). It may be called
// before or during traffic.
func (t *Tracer) Enable(perSession, maxSessions int) {
	t.mu.Lock()
	if perSession > 0 {
		t.perSession = perSession
	}
	if maxSessions > 0 {
		t.maxSessions = maxSessions
	}
	t.mu.Unlock()
	t.enabled.Store(true)
}

// Disable turns tracing off; recorded rings are kept for inspection.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether Record currently records.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Record appends one event to the session's ring. With tracing disabled
// this is a single atomic load — the callers in the session and
// transport hot paths rely on that.
func (t *Tracer) Record(tick int64, session uint32, kind EventKind, arg int64) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	rg := t.rings[session]
	if rg == nil {
		if len(t.rings) >= t.maxSessions {
			t.dropped++
			t.mu.Unlock()
			return
		}
		rg = &ring{buf: make([]TraceEvent, t.perSession)}
		t.rings[session] = rg
	}
	rg.push(TraceEvent{Tick: tick, Session: session, Kind: kind, Arg: arg})
	t.mu.Unlock()
}

// Events returns the recorded ring for one session, oldest first, with
// KindName filled for rendering.
func (t *Tracer) Events(session uint32) []TraceEvent {
	t.mu.Lock()
	rg := t.rings[session]
	var out []TraceEvent
	if rg != nil {
		out = rg.events()
	}
	t.mu.Unlock()
	for i := range out {
		out[i].KindName = out[i].Kind.String()
	}
	return out
}

// SessionTrace is one session's trace in a snapshot.
type SessionTrace struct {
	// Session is the session ID.
	Session uint32 `json:"session"`
	// Total counts events ever recorded (>= len(Events) once the ring
	// wraps).
	Total int64 `json:"total"`
	// Events is the ring's current contents, oldest first.
	Events []TraceEvent `json:"events"`
}

// Snapshot returns every session's ring, session IDs ascending.
func (t *Tracer) Snapshot() []SessionTrace {
	t.mu.Lock()
	out := make([]SessionTrace, 0, len(t.rings))
	for id, rg := range t.rings {
		out = append(out, SessionTrace{Session: id, Total: rg.total, Events: rg.events()})
	}
	t.mu.Unlock()
	for i := range out {
		for j := range out[i].Events {
			out[i].Events[j].KindName = out[i].Events[j].Kind.String()
		}
	}
	// Deterministic order for exports and tests.
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// Dropped counts events dropped because the session cap was reached.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
