// Package session runs many RSTP transfers concurrently over one
// transport: the serving layer the simulator does not have.
//
// Each transfer is a *session*: a fresh protocol pair (bare, hardened or
// stabilized — anything exposing NewPair) whose transmitter automaton
// lives in a Dialer and whose receiver automaton lives in a Server,
// connected by a shared transport.Transport that frames every packet
// with the session ID (wire.Frame). Both ends are driven off one shared
// real-time Clock: every endpoint takes one local protocol step each c2
// ticks (the slowest legal schedule, the one the effort bounds quantify
// over), woken by the clock's pacer at the tick. No endpoint steps less
// than c1 ticks after its previous step, by construction; a late wake-up
// (the pacer's lag, OS scheduling) can only stretch a gap past c2, and
// is booked in the rstp_session_step_lag_ticks histogram — see
// DESIGN.md.
//
// Concurrency layout, kept deliberately simple so it is race-clean under
// `go test -race`:
//
//   - one loop goroutine per Server/Dialer, owning every automaton of its
//     side: a delivered frame is applied to its session on arrival, and
//     every c2 ticks the loop steps each active endpoint in spawn order.
//     A side with no active endpoint takes no step wake-ups at all.
//     There is no per-session goroutine, timer or inbox, so the mux never
//     drops a frame the transport delivered;
//   - one mutex per side guarding every endpoint's counters and trace,
//     snapshotted into immutable Reports for readers;
//   - retirement (Conn.Close, Evict, idle eviction, the watchdog, Close) is
//     synchronous under that mutex: before the call returns, the session
//     ID is in the side's tombstone set and its counters are folded into
//     the side's running sums. A retired session keeps nothing else,
//     except that a receiver the side retired on its own parks its full
//     report until Evict claims it (at most MaxSessions are parked). A
//     side that Conn.Close or Evict leaves with no live session drops its
//     retired endpoints at once; otherwise its next step round does;
//   - each full final report (trace and output tape) goes to exactly one
//     caller: Conn.Report reads the Conn's own endpoint, Evict hands over
//     the receiver's. A retired endpoint's tape and trace never change
//     again, so its final reports share them instead of copying;
//   - a receiver's durable tape save is the one thing run off the loop
//     (see Config.Store); its goroutine is counted in the side's
//     WaitGroup, so Close waits for it.
//
// New sessions are admitted through a Dialer-side semaphore of
// MaxSessions slots (Start blocks until a slot frees or the context is
// done, and a freed slot goes to the longest-blocked Start); the Server
// additionally refuses to spawn receiver state beyond its own
// MaxSessions, dropping frames of over-limit sessions. Idle receiver
// sessions are evicted after IdleTicks without traffic.
package session

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/timed"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PairBuilder constructs fresh protocol pairs: rstp.Solution,
// rstp.HardenedSolution and rstp.StabilizedSolution all satisfy it.
//
// Each side of a session builds a whole pair and keeps one half: the
// Dialer keeps the transmitter of NewPair(x), and the Server keeps the
// receiver of NewPair(nil). So a builder must keep the half it hands
// back unused cheap. The rstp and rateless builders do: an automaton is
// a state value over a package-level command table and shared immutable
// parts, so a β(4) pair costs 4 allocations and NewPair(nil) 3.
type PairBuilder interface {
	// NewPair builds a transmitter/receiver pair for input x.
	NewPair(x []wire.Bit) (t, r ioa.Automaton, err error)
	// String names the protocol stack, e.g. "hardened(beta(k=4))".
	String() string
}

// KeyedPairBuilder is the durable flavor of PairBuilder: pairs whose
// endpoints checkpoint themselves into a StateStore under a caller-
// chosen key prefix. rstp.StabilizedSolution satisfies it; the mux uses
// it (when Config.Store is set) to give every session its own key
// namespace, "s<ID>/", so a restarted process can rebuild exactly the
// sessions it was serving.
type KeyedPairBuilder interface {
	PairBuilder
	// NewPairKeyed is NewPair with the endpoints' checkpoint keys
	// namespaced under prefix.
	NewPairKeyed(prefix string, x []wire.Bit) (t, r ioa.Automaton, err error)
}

// TapeResumer is the optional hook a receiver automaton may expose (the
// stabilized layer's endpoints do) to learn, at spawn, how many
// messages a previous incarnation already wrote durably: the REPORT it
// sends during the recovery handshake must count those, or the
// transmitter would resend messages the tape already holds. n only ever
// raises the automaton's count — a checkpoint ahead of the tape wins.
type TapeResumer interface {
	ResumeTape(n int64)
}

// Resyncer is the optional resynchronization hook a session automaton
// may expose (the stabilized layer's endpoints do): the watchdog pulls
// it once before force-retiring a wedged session, giving the protocol a
// chance to heal in place. The call happens on the side's loop, which
// owns the automaton, so implementations need no locking of their own.
type Resyncer interface {
	ForceResync()
}

// Config configures a Server, a Dialer, or a Pipe (which shares one
// Config across both). Transport, Clock, Solution and Params are
// required; everything else has serving defaults.
type Config struct {
	// Solution builds each session's protocol pair.
	Solution PairBuilder
	// Params are the timing constants: endpoints step every C2 ticks, and
	// the delay and watchdog bounds are interpreted against them.
	Params rstp.Params
	// Transport carries the frames.
	Transport transport.Transport
	// Clock is the shared tick source.
	Clock *transport.Clock
	// MaxSessions bounds concurrently live sessions per side (default
	// 1024). On the Dialer it is the admission mechanism: Start parks
	// while MaxSessions sessions are open, and a freed slot goes to the
	// longest-parked Start (FIFO), so no dial waits behind later ones. A
	// Dialer capped at the Server's MaxSessions keeps a congested link's
	// excess load queued before it sends a frame. The Server refuses
	// receiver state past it.
	MaxSessions int
	// IdleTicks evicts a receiver session after this many ticks without
	// traffic (default 64·D; <0 disables eviction).
	IdleTicks int64
	// TraceLimit caps the per-session recorded event trace used for
	// per-session statistics (default 8192 events; <0 disables tracing).
	// Events past the cap are counted, not recorded. A session's trace is
	// sized at spawn from its side's last finished session (its length
	// plus an eighth, never past TraceLimit), so sessions of one size
	// allocate it once.
	TraceLimit int
	// WatchdogK enables the Server's per-session progress watchdog: a
	// receiver session whose output tape grows by nothing for
	// WatchdogK·δ1·c2 ticks is declared wedged and force-retired through
	// the tombstone path. δ1·c2 is the paper's per-message effort bound —
	// the longest a healthy session can legally take between consecutive
	// writes — so k is "how many worst-case message times of silence
	// before giving up". 0 disables the watchdog. An automaton that
	// implements Resyncer (the stabilized layer's endpoints do) is
	// resynchronized once before it is force-retired, giving the
	// protocol one wedge-window-long chance to heal in place.
	WatchdogK int
	// Obs wires the mux into an observability registry: endpoint counters,
	// the interwrite/deadline-margin/effort-gap histograms, protocol trace
	// events, and the Server's live per-session introspection table. nil
	// disables instrumentation entirely (the hot path pays one nil check).
	Obs *obs.Registry
	// Store persists per-session recovery state: the pair's checkpoints
	// (via KeyedPairBuilder, under "s<ID>/") and the receiver's output
	// tape (under "s<ID>/y", one byte per message, saved on every write
	// BEFORE the write is announced — the paper's irrevocable-write
	// semantics). The tape save runs off the side's loop, so a slow disk
	// delays only its own session's writes; checkpoints are saved by the
	// automaton itself, inside Apply, on the loop. nil disables
	// persistence. Implementations must be safe for concurrent use;
	// internal/journal.Store is the durable one.
	Store rstp.StateStore
	// EffortLowerBound is the paper's per-message effort lower bound in
	// ticks for the configured protocol (δ1·c2/log2 ζ_k(δ1) r-passive,
	// d/log2 ζ_k(δ2) active — Thms 5.3 and 5.6), supplied by the caller
	// because it depends on the protocol's k. When > 0 it anchors the
	// rstp_effort_gap_ticks histogram and the live effort-gap table;
	// 0 leaves only the absolute effort visible.
	EffortLowerBound float64

	// metrics is built from Obs in withDefaults; nil disables every hook.
	metrics *sessionMetrics
}

func (c Config) withDefaults() (Config, error) {
	if c.Solution == nil {
		return c, fmt.Errorf("session: Config.Solution required")
	}
	if c.Transport == nil {
		return c, fmt.Errorf("session: Config.Transport required")
	}
	if c.Clock == nil {
		return c, fmt.Errorf("session: Config.Clock required")
	}
	if err := c.Params.Validate(); err != nil {
		return c, err
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.IdleTicks == 0 {
		c.IdleTicks = 64 * c.Params.D
	}
	if c.TraceLimit == 0 {
		c.TraceLimit = 8192
	}
	c.metrics = newSessionMetrics(c.Obs, c.Params, c.EffortLowerBound)
	return c, nil
}

// sessionKeyPrefix is the per-session namespace inside Config.Store;
// tapeKey is the receiver's durable output tape within it.
func sessionKeyPrefix(id uint32) string { return fmt.Sprintf("s%d/", id) }
func tapeKey(id uint32) string          { return sessionKeyPrefix(id) + "y" }

// buildPair constructs one session's protocol pair, routing through the
// keyed path when a store is configured and the solution supports it.
func buildPair(cfg Config, id uint32, x []wire.Bit) (t, r ioa.Automaton, err error) {
	if cfg.Store != nil {
		if kb, ok := cfg.Solution.(KeyedPairBuilder); ok {
			return kb.NewPairKeyed(sessionKeyPrefix(id), x)
		}
	}
	return cfg.Solution.NewPair(x)
}

// encodeTape and decodeTape serialize an output tape one byte per
// message. A truncated tape (a crash between tape save and checkpoint
// save) is still a prefix of X, so recovery from it is safe — the
// handshake retransmits the lost suffix.
func encodeTape(y []wire.Bit) []byte {
	b := make([]byte, len(y))
	for i, m := range y {
		b[i] = byte(m)
	}
	return b
}

func decodeTape(data []byte) []wire.Bit {
	y := make([]wire.Bit, len(data))
	for i, c := range data {
		y[i] = wire.Bit(c & 1)
	}
	return y
}

// eventSeq orders recorded trace events across all endpoints, so merged
// per-session traces sort causally (a recv is always recorded after its
// send).
var eventSeq atomic.Int64

// Report is an immutable snapshot of one session endpoint. A live
// endpoint's report holds copies of its output tape and trace; a
// finished one's shares them with the endpoint and with its other final
// reports, clipped to their length, so appending to Y or Trace copies
// and never changes another holder's view. Do not write their elements.
type Report struct {
	// ID is the session ID.
	ID uint32
	// Role is "transmitter" or "receiver".
	Role string
	// Start is the tick the endpoint was created.
	Start int64
	// Sends, Deliveries and Writes count protocol events so far; Rejected
	// counts delivered frames the automaton's signature refused. Overflow
	// is always 0: the mux applies every delivered frame and drops none.
	Sends, Deliveries, Writes int
	Rejected, Overflow        int
	// SendErrors counts Transport.Send failures. They are non-fatal — a
	// failed send is channel loss, which the protocols retransmit around —
	// except transport.ErrClosed, which stops the endpoint.
	SendErrors int
	// Err is the most recent send error, "" if none.
	Err string
	// LastSend and LastWrite are absolute ticks (0 if none).
	LastSend, LastWrite int64
	// Y is the written output tape (receiver endpoints). Resumed counts
	// the messages of Y preloaded from a persisted tape at spawn — the
	// durable work of a previous incarnation — rather than written by
	// this endpoint; Writes includes them.
	Y       []wire.Bit
	Resumed int
	// Evicted reports the endpoint was torn down by the idle monitor.
	Evicted bool
	// Wedged reports the endpoint was force-retired by the progress
	// watchdog: no output growth within the wedge window.
	Wedged bool
	// Resyncs counts watchdog-triggered ForceResync calls into the
	// automaton (at most one per session).
	Resyncs int
	// Finished reports the endpoint has retired: it is no longer stepped
	// and its report is final.
	Finished bool
	// Trace is the recorded event trace (nil for light snapshots or when
	// tracing is disabled), allocated once per session when the side's
	// sessions are of one size (see Config.TraceLimit); TraceDropped
	// counts events past TraceLimit.
	Trace        []timed.Event
	TraceDropped int
}

// Effort is the endpoint-local effort estimate (LastSend-Start)/Writes —
// meaningful on merged transmitter+receiver views; see Pipe.
func (r Report) Effort() float64 {
	if r.Writes == 0 || r.LastSend == 0 {
		return 0
	}
	return float64(r.LastSend-r.Start) / float64(r.Writes)
}

// PrefixCheck compares an output tape y against the input x: it returns
// "" when y is a prefix of x, else a description of the first violation.
func PrefixCheck(x, y []wire.Bit) string {
	if len(y) > len(x) {
		return fmt.Sprintf("output has %d messages, input only %d", len(y), len(x))
	}
	for i := range y {
		if y[i] != x[i] {
			return fmt.Sprintf("output[%d] = %v, want %v", i, y[i], x[i])
		}
	}
	return ""
}

// endpoint is one side of one session: an automaton and its counters.
// The side's loop owns the automaton; every mutable field is guarded by
// the owning mux's mutex.
type endpoint struct {
	id      uint32
	auto    ioa.Automaton
	m       *mux
	tapeKey string // durable output-tape key; "" disables tape persistence

	start        int64
	sends        int
	deliveries   int
	writes       int
	rejected     int
	sendErrs     int
	lastErr      error
	lastSend     int64
	lastWrite    int64
	lastActivity int64
	stallMark    int64 // m.stalled at lastActivity
	lastProgress int64 // tick of the last output write (watchdog clock)
	y            []wire.Bit
	resumed      int // messages preloaded from a persisted tape at spawn
	trace        []timed.Event
	traceDropped int
	evicted      bool
	wedged       bool
	resyncs      int
	retired      bool
	saving       bool // a tape save is in flight: not stepped until it lands

	// waiter, when a WaitWrites caller is parked on this session, is
	// closed once writes reach waitFor or the endpoint retires.
	waiter  chan struct{}
	waitFor int
}

// newEndpoint builds an endpoint of m's side. Its trace gets room for
// the events the side's last retired endpoint recorded plus an eighth,
// up to TraceLimit, so a side serving sessions of one size allocates
// each trace once: a receiver's event count varies with the frames'
// delays (churn's 48-bit sessions record 137–151), and one event past
// the room would double the trace. Callers hold m.mu.
func newEndpoint(m *mux, id uint32, auto ioa.Automaton) *endpoint {
	now := m.cfg.Clock.Now()
	e := &endpoint{id: id, auto: auto, m: m, start: now, lastActivity: now, stallMark: m.stalled, lastProgress: now}
	if m.traceHint > 0 && m.cfg.TraceLimit > 0 {
		e.trace = make([]timed.Event, 0, min(m.cfg.TraceLimit, m.traceHint+m.traceHint/8))
	}
	return e
}

// idle is the ticks since the endpoint's last arrival, less the loop
// stalls booked since (mux.now).
func (e *endpoint) idle(now int64) int64 {
	return now - e.lastActivity - (e.m.stalled - e.stallMark)
}

// resumeTape seeds a freshly spawned receiver endpoint with the output
// tape a previous incarnation persisted, and tells the automaton (via
// TapeResumer) how many messages are already durable so its recovery
// REPORT counts them.
func (e *endpoint) resumeTape(y []wire.Bit) {
	e.y = append([]wire.Bit(nil), y...)
	e.writes = len(y)
	e.resumed = len(y)
	if tr, ok := e.auto.(TapeResumer); ok {
		tr.ResumeTape(int64(len(y)))
	}
}

// sizeTape gives the output tape room for n messages in one allocation,
// so a transfer whose length is known never grows it write by write.
func (e *endpoint) sizeTape(n int) {
	if n > cap(e.y) {
		e.y = slices.Grow(e.y, n-len(e.y))
	}
}

// record appends a trace event under the configured cap.
func (e *endpoint) record(t int64, actor string, act ioa.Action, pktSeq int64) {
	if e.m.cfg.TraceLimit < 0 {
		return
	}
	if len(e.trace) >= e.m.cfg.TraceLimit {
		e.traceDropped++
		return
	}
	e.trace = append(e.trace, timed.Event{
		Time: t, Seq: eventSeq.Add(1), Actor: actor, Action: act, PacketSeq: pktSeq,
	})
}

// checkProgress is the per-session progress watchdog, run each step for
// server-side endpoints: a session whose output tape grew by nothing for
// window ticks is wedged. For an automaton that implements Resyncer,
// the first trip instead forces a protocol resynchronization and re-arms
// the window, so a session the stabilized layer can still heal gets
// exactly one wedge-window-long chance before the force-retire. Returns
// false when the endpoint must retire.
func (e *endpoint) checkProgress(now, window int64) bool {
	if now-e.lastProgress <= window {
		return true
	}
	if e.resyncs == 0 {
		if rs, ok := e.auto.(Resyncer); ok {
			e.resyncs++
			e.lastProgress = now // re-arm: one full window to heal
			e.m.cfg.metrics.onResync(now, e.id)
			rs.ForceResync()
			return true
		}
	}
	e.wedged = true
	e.m.cfg.metrics.onWedge(now, e.id, now-e.lastProgress)
	return false
}

// apply applies one delivered frame as a recv input, if the automaton's
// signature accepts it.
func (e *endpoint) apply(f wire.Frame) {
	now := e.m.cfg.Clock.Now()
	// Classify, Apply and record all take the same value, pre-boxed for
	// a bare frame of the k-ary alphabet.
	act := rstp.RecvAction(f.Dir, f.P, f.Payload)
	e.lastActivity, e.stallMark = now, e.m.stalled
	if e.auto.Classify(act) != ioa.ClassInput || e.auto.Apply(act) != nil {
		e.rejected++
		e.m.cfg.metrics.onReject()
		return
	}
	e.deliveries++
	e.record(now, "chan", act, f.Seq)
	e.m.cfg.metrics.onRecv(now, e.id, f.Seq)
}

// step applies one local protocol action and performs its side effects
// (transport sends, output-tape writes). It returns false when the
// endpoint cannot make progress anymore (transport closed). now is the
// tick of the mux round taking the step.
func (e *endpoint) step(now int64) bool {
	act, ok := e.auto.NextLocal()
	if !ok {
		return true // terminated protocol: keep serving recvs until retired
	}
	if err := e.auto.Apply(act); err != nil {
		// A race between precondition and Apply cannot happen — the loop
		// owns the automaton — so treat this as a protocol bug surfaced in
		// counters rather than a crash.
		e.rejected++
		return true
	}
	m := e.m
	switch a := act.(type) {
	case wire.Send:
		m.seq++
		pktSeq := m.seq*2 + m.parity // disjoint seq ranges per side
		err := m.cfg.Transport.Send(wire.Frame{Session: e.id, Dir: a.Dir, Seq: pktSeq, P: a.P, Payload: a.Payload})
		e.sends++
		e.lastSend = now
		e.record(now, e.auto.Name(), act, pktSeq)
		m.cfg.metrics.onSend(now, e.id, pktSeq)
		if err != nil {
			e.sendErrs++
			e.lastErr = err
			m.cfg.metrics.onSendErr()
		}
		// Only a closed transport is terminal. Anything else (e.g. a
		// transient ENOBUFS/EMSGSIZE from the UDP socket) drops this frame
		// exactly like channel loss — the protocols already retransmit —
		// so the endpoint counts it and keeps stepping.
		if errors.Is(err, transport.ErrClosed) {
			return false
		}
	case wire.Write:
		prev := e.lastWrite
		e.y = append(e.y, a.M)
		e.writes++
		e.lastWrite = now
		e.lastProgress = now
		e.record(now, e.auto.Name(), act, 0)
		if e.tapeKey == "" {
			e.announce(now, prev)
			break
		}
		// Durable before observable: the tape reaches stable storage
		// before the write is announced through metrics and waiters, so a
		// crash can lose an unannounced write but never expose one it
		// might roll back — write(m) stays irrevocable. The save runs off
		// the loop, which keeps applying arrivals (for this session too)
		// and stepping the others while a slow disk holds this one.
		e.saving = true
		tape := encodeTape(e.y)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.cfg.Store.Save(e.tapeKey, tape)
			m.mu.Lock()
			e.saving = false
			e.announce(now, prev)
			m.landed.Broadcast()
			m.mu.Unlock()
		}()
	default:
		e.record(now, e.auto.Name(), act, 0)
	}
	return true
}

// announce publishes a durable write at tick at (prev is the previous
// write's tick) to the metrics and to a parked WaitWrites caller.
func (e *endpoint) announce(at, prev int64) {
	e.m.cfg.metrics.onWrite(at, e.id, prev, e.start)
	if e.writes >= e.waitFor {
		e.wake()
	}
}

// wake releases a parked WaitWrites caller, if any.
func (e *endpoint) wake() {
	if e.waiter != nil {
		close(e.waiter)
		e.waiter = nil
	}
}

// counters captures the endpoint's counters: a Report without its
// output tape or trace.
func (e *endpoint) counters() Report {
	r := Report{
		ID: e.id, Role: e.m.role, Start: e.start,
		Sends: e.sends, Deliveries: e.deliveries, Writes: e.writes,
		Rejected:   e.rejected,
		SendErrors: e.sendErrs,
		LastSend:   e.lastSend, LastWrite: e.lastWrite,
		Resumed: e.resumed,
		Evicted: e.evicted, Wedged: e.wedged, Resyncs: e.resyncs,
		Finished:     e.retired,
		TraceDropped: e.traceDropped,
	}
	if e.lastErr != nil {
		r.Err = e.lastErr.Error()
	}
	return r
}

// report captures the endpoint's counters and its output tape; withTrace
// adds the recorded trace. A live endpoint's are copied. A retired one's
// never change again, so its final reports share them, clipped to their
// length so that an append by any holder copies.
func (e *endpoint) report(withTrace bool) Report {
	r := e.counters()
	if e.retired {
		r.Y = clip(e.y)
		if withTrace {
			r.Trace = clip(e.trace)
		}
		return r
	}
	r.Y = append([]wire.Bit(nil), e.y...)
	if withTrace {
		r.Trace = append([]timed.Event(nil), e.trace...)
	}
	return r
}

// clip returns s with its capacity cut to its length, or nil when s is
// empty, as a copy of it would be.
func clip[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
}
