package session

import (
	"repro/internal/obs"
	"repro/internal/rstp"
)

// sessionMetrics is the mux's bridge into the obs registry. It is built
// once per Server/Dialer in withDefaults (nil when Config.Obs is nil) and
// shared by every endpoint of that side; both sides of a Pipe share the
// underlying metrics through the registry's get-or-create semantics.
//
// Every hook is safe on a nil receiver — the uninstrumented hot path pays
// one nil check and nothing else — and every argument is a scalar, so an
// instrumented endpoint allocates nothing per event either.
type sessionMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	sends      *obs.Counter
	deliveries *obs.Counter
	writes     *obs.Counter
	rejected   *obs.Counter
	sendErrs   *obs.Counter
	wedged     *obs.Counter
	resyncs    *obs.Counter
	refused    *obs.Counter
	late       *obs.Counter
	resumed    *obs.Counter

	// interwrite is the gap in ticks between consecutive output writes of
	// one session — the live per-message effort. margin is the paper's
	// per-message deadline δ1·c2 minus that gap (negative = deadline
	// miss). effortGap is the gap minus the configured effort lower bound
	// (Thm 5.3/5.6), the live distance between what the serving stack
	// spends and what the paper proves any correct protocol must spend.
	interwrite *obs.Histogram
	margin     *obs.Histogram
	effortGap  *obs.Histogram
	// stepLag is how many ticks after its due tick each step round ran:
	// 0 when the round kept the c2 schedule.
	stepLag *obs.Histogram

	deadline int64   // δ1·c2 in ticks
	bound    float64 // effort lower bound in ticks; 0 disables effortGap
}

func newSessionMetrics(reg *obs.Registry, p rstp.Params, bound float64) *sessionMetrics {
	if reg == nil {
		return nil
	}
	m := &sessionMetrics{
		reg:    reg,
		tracer: reg.Tracer(),

		sends:      reg.Counter("rstp_session_sends_total", "protocol packets sent by session endpoints"),
		deliveries: reg.Counter("rstp_session_deliveries_total", "delivered frames accepted by session automata"),
		writes:     reg.Counter("rstp_session_writes_total", "messages written to receiver output tapes"),
		rejected:   reg.Counter("rstp_session_rejected_total", "delivered frames refused by an automaton's signature"),
		sendErrs:   reg.Counter("rstp_session_send_errors_total", "transport send failures (counted as channel loss)"),
		wedged:     reg.Counter("rstp_sessions_wedged_total", "sessions force-retired by the progress watchdog"),
		resyncs:    reg.Counter("rstp_session_resyncs_total", "watchdog-forced protocol resynchronizations"),
		refused:    reg.Counter("rstp_server_frames_refused_total", "new-session frames dropped at the MaxSessions cap"),
		late:       reg.Counter("rstp_server_frames_late_total", "in-flight frames of retired sessions dropped at the tombstone"),
		resumed:    reg.Counter("rstp_sessions_resumed_total", "receiver sessions respawned with a persisted output tape"),

		interwrite: reg.Histogram("rstp_interwrite_ticks", "gap between consecutive output writes, in ticks", obs.TickBuckets(0)),
		margin:     reg.Histogram("rstp_deadline_margin_ticks", "per-message deadline δ1·c2 minus the interwrite gap (negative = miss)", obs.MarginBuckets(0)),
		// The gap runs to hundreds of ticks under load (it measures slack
		// above the bound, not proximity to a deadline), so it needs the
		// wide ±2048 layout or its p99 drowns in the +Inf bucket.
		effortGap: reg.Histogram("rstp_effort_gap_ticks", "interwrite gap minus the paper's effort lower bound", obs.MarginBuckets(12)),
		stepLag:   reg.Histogram("rstp_session_step_lag_ticks", "ticks a step round ran after its due tick", obs.TickBuckets(0)),

		deadline: int64(p.Delta1()) * p.C2,
		bound:    bound,
	}
	reg.Gauge("rstp_deadline_ticks", "per-message deadline δ1·c2 in ticks").Set(m.deadline)
	reg.Float("rstp_effort_bound_ticks", "configured per-message effort lower bound in ticks").Set(bound)
	return m
}

func (m *sessionMetrics) onRound(lag int64) {
	if m == nil {
		return
	}
	m.stepLag.Observe(lag)
}

func (m *sessionMetrics) onSend(tick int64, id uint32, pktSeq int64) {
	if m == nil {
		return
	}
	m.sends.Inc()
	m.tracer.Record(tick, id, obs.EvSend, pktSeq)
}

func (m *sessionMetrics) onSendErr() {
	if m == nil {
		return
	}
	m.sendErrs.Inc()
}

func (m *sessionMetrics) onRecv(tick int64, id uint32, pktSeq int64) {
	if m == nil {
		return
	}
	m.deliveries.Inc()
	m.tracer.Record(tick, id, obs.EvRecv, pktSeq)
}

func (m *sessionMetrics) onReject() {
	if m == nil {
		return
	}
	m.rejected.Inc()
}

// onWrite observes one output write. prev is the tick of the previous
// write (0 if none), start the endpoint's creation tick: the first
// message's effort is measured from session start.
func (m *sessionMetrics) onWrite(tick int64, id uint32, prev, start int64) {
	if m == nil {
		return
	}
	m.writes.Inc()
	base := prev
	if base == 0 {
		base = start
	}
	gap := tick - base
	m.interwrite.Observe(gap)
	m.margin.Observe(m.deadline - gap)
	if m.bound > 0 {
		m.effortGap.Observe(gap - int64(m.bound+0.5))
	}
	m.tracer.Record(tick, id, obs.EvWrite, gap)
}

func (m *sessionMetrics) onWedge(tick int64, id uint32, silentTicks int64) {
	if m == nil {
		return
	}
	m.wedged.Inc()
	m.tracer.Record(tick, id, obs.EvWedge, silentTicks)
}

func (m *sessionMetrics) onResync(tick int64, id uint32) {
	if m == nil {
		return
	}
	m.resyncs.Inc()
	m.tracer.Record(tick, id, obs.EvResync, 0)
}

func (m *sessionMetrics) onResume() {
	if m == nil {
		return
	}
	m.resumed.Inc()
}

func (m *sessionMetrics) onRefuse(tick int64, id uint32) {
	if m == nil {
		return
	}
	m.refused.Inc()
	m.tracer.Record(tick, id, obs.EvRefuse, 0)
}

func (m *sessionMetrics) onLate(tick int64, id uint32) {
	if m == nil {
		return
	}
	m.late.Inc()
	m.tracer.Record(tick, id, obs.EvLate, 0)
}

// LiveSession is one row of the Server's live introspection table,
// exported through the JSON snapshot's "live" section (never through the
// Prometheus exposition — its cardinality is per-session).
type LiveSession struct {
	ID     uint32 `json:"id"`
	Role   string `json:"role"`
	Sends  int    `json:"sends"`
	Writes int    `json:"writes"`
	// EffortTicks is (LastSend−Start)/Writes, the endpoint-local effort
	// estimate in ticks per message; EffortGapTicks subtracts the
	// configured lower bound (omitted when no bound is configured).
	EffortTicks    float64 `json:"effort_ticks"`
	EffortGapTicks float64 `json:"effort_gap_ticks,omitempty"`
	// IdleTicks is the clock the progress watchdog reads against
	// Config.IdleTicks: the ticks since the session's last write (or its
	// spawn, or its resync), less the loop's own stalls since.
	IdleTicks int64 `json:"idle_ticks"`
	Resyncs   int   `json:"resyncs,omitempty"`
}

// instrument registers the Server's scrape-time views: the active-session
// gauge, the refused/late counters it already keeps, the live
// per-session effort table, and the live effort mean/max floats.
func (s *Server) instrument(m *sessionMetrics) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("rstp_server_sessions_active",
		"receiver sessions currently live in the mux", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.active))
		})
	m.reg.GaugeFunc("rstp_server_sessions_finished",
		"receiver sessions retired so far", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(s.retired.Sessions)
		})
	m.reg.FloatFunc("rstp_live_effort_mean_ticks",
		"mean effort in ticks per message across live receiver sessions", func() float64 {
			mean, _ := s.liveEffort()
			return mean
		})
	m.reg.FloatFunc("rstp_live_effort_max_ticks",
		"worst effort in ticks per message across live receiver sessions", func() float64 {
			_, max := s.liveEffort()
			return max
		})
	m.reg.Live("server_sessions", func() any { return s.LiveSessions() })
}

// liveEffort folds the live sessions' effort estimates into (mean, max),
// skipping sessions that have not written yet.
func (s *Server) liveEffort() (mean, max float64) {
	var sum float64
	var n int
	for _, ls := range s.LiveSessions() {
		if ls.EffortTicks <= 0 {
			continue
		}
		sum += ls.EffortTicks
		n++
		if ls.EffortTicks > max {
			max = ls.EffortTicks
		}
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, max
}

// LiveSessions snapshots every active receiver session into the live
// introspection table. Counters only — no traces, no tape copies.
func (s *Server) LiveSessions() []LiveSession {
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LiveSession, 0, len(s.active))
	for _, ep := range s.order {
		if ep.retired {
			continue
		}
		ls := LiveSession{
			ID: ep.id, Role: s.role,
			Sends: ep.sends, Writes: ep.writes,
			EffortTicks: Report{Start: ep.start, LastSend: ep.lastSend, Writes: ep.writes}.Effort(),
			IdleTicks:   ep.silence(now),
			Resyncs:     ep.resyncs,
		}
		if b := s.cfg.EffortLowerBound; b > 0 && ls.EffortTicks > 0 {
			ls.EffortGapTicks = ls.EffortTicks - b
		}
		out = append(out, ls)
	}
	return out
}

// instrument registers the Dialer's scrape-time views.
func (d *Dialer) instrument(m *sessionMetrics) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("rstp_dialer_sessions_active",
		"transmitter sessions currently open", func() int64 {
			return int64(d.InFlight())
		})
	m.reg.CounterFunc("rstp_dialer_frames_stray_total",
		"r->t frames that arrived for no open session", func() int64 {
			return int64(d.Stray())
		})
}
