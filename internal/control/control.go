// Package control is the serving stack's adaptive overload control
// plane: a seeded, deterministic loop that closes the circle the obs
// layer opened. Each tick it windows the shared registry's sensors —
// the deadline-margin histogram's miss tail and the server's refusal
// rate — folds them into one pressure scalar, runs it through a
// hysteresis escalation ladder (normal → pace → refuse), and paces or
// refuses new sessions in the session mux via the
// session.AdmissionController hooks — including an occupancy gate that
// parks new dials while the receiver side is at its session target, so
// waiting work queues silently instead of flooding the channel with
// frames that can only be refused.
//
// The controller admits; it does not choose the protocol. Every session
// runs the mux's Config.Solution, the stack the operator named. And it
// sheds load, never admitted sessions: once a session is in, only the
// mux's own watchdog and -shed policy can end it.
//
// Every decision is observable (rstp_control_* metrics and the
// "control" live hook, served at /control) and every random choice
// (pacing jitter) comes from a seeded RNG, so a run is reproducible
// from its seed.
package control

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/session"
	"repro/internal/transport"
)

// Config assembles a Controller. Registry, Clock and Params are
// required; actuators are late-bound with Bind because the mux that
// provides them needs the controller at its own construction.
type Config struct {
	// Registry is the shared obs registry the controller both reads
	// (sensors) and writes (its own rstp_control_* metrics).
	Registry *obs.Registry
	// Clock is the tick source shared with the transports and sessions.
	Clock *transport.Clock
	// Params are the timing constants; the Interval and PaceTicks
	// defaults derive from them.
	Params rstp.Params

	// Interval is the control tick period in ticks (default 8·d).
	Interval int64
	// Dwell is the ladder's minimum gap between level changes, in ticks
	// (default 4·Interval).
	Dwell int64
	// PaceTicks is the base admission delay at the pace level, in ticks
	// (default d). The actual delay adds jitter in [0, PaceTicks].
	PaceTicks int64
	// Seed seeds the pacing jitter RNG (default 1).
	Seed int64

	// TargetSessions, when positive, turns on occupancy-gated admission:
	// Admit holds new sessions (sleeping in jittered Interval-scale
	// slices) while the bound Active() count is at or above the target,
	// releasing them as slots free up. This is the cheapest form of
	// admission control — a dialer that would otherwise burn its whole
	// per-session budget waiting for a receiver slot instead queues
	// before transmitting a single frame, keeping the channel clear for
	// the sessions that do hold slots. Zero disables the gate.
	TargetSessions int

	// RefuseScale normalises the windowed server-refusal count into
	// pressure units: RefuseScale refused frames per window count as
	// 1.0 pressure (default 64).
	RefuseScale float64
}

// Actuators are the mux-side hooks the controller reads. They are bound
// after construction (Bind) because the Server that provides them is
// itself built with the controller already in hand.
type Actuators struct {
	// Active reports live receiver-session occupancy
	// (Server.ActiveCount), which the occupancy gate compares against
	// Config.TargetSessions; nil leaves the gate counting only the
	// controller's own in-flight admissions.
	Active func() int64
}

// missPressureWeight scales the windowed deadline-miss EXCESS — the
// miss fraction above its slowly-adapting baseline — into pressure: a
// miss fraction 2/3 above the baseline reaches the refuse rung.
const missPressureWeight = 1.5

// missBaseAlpha is the EWMA weight for the miss-fraction baseline. The
// absolute miss rate is platform-colored — at microsecond tick lengths
// the δ1·c2 deadline sits below timer granularity and even a healthy
// stack "misses" most writes by wall-clock jitter — so the sensor
// scores degradation against what this deployment normally measures
// (delay-gradient style), not against an absolute that only holds for
// one tick scale. 1/8 per window: the baseline absorbs a regime change
// in ~10 windows, slow enough that congestion onset registers at full
// strength first.
const missBaseAlpha = 0.125

// missMinWindow is the minimum windowed write count for the miss
// sensor: below it one late write swings the fraction by whole rungs.
const missMinWindow = 4

// Controller implements session.AdmissionController and runs the
// control loop. Create with New, wire as Config.Admission on both mux
// sides, Bind the actuators, then Start.
type Controller struct {
	cfg  Config
	acts Actuators

	marginHist *obs.Histogram
	refused    *obs.Counter

	done    chan struct{}
	wg      sync.WaitGroup
	startMu sync.Mutex
	started bool
	stopped bool

	mu       sync.Mutex
	rng      *rand.Rand
	ladder   Ladder
	pressure float64

	// admitted holds the IDs Admit let in and Forget has not dropped:
	// the gate counts them as in flight and AdmitServer always accepts
	// them.
	admitted    map[uint32]struct{}
	prevMargin  obs.HistogramSnapshot
	prevRefused int64
	missBase    float64 // EWMA of the windowed miss fraction; -1 until seeded

	ticks, paced, paceTicks    int64
	gated, gateTicks           int64
	dialRefused, serverRefused int64
	levelTicks                 [numLevels]int64
}

// New validates the config and registers the controller's metrics. The
// controller is inert (and admits everything unpaced at LevelNormal)
// until Start.
func New(cfg Config) (*Controller, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("control: Config.Registry required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("control: Config.Clock required")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 8 * cfg.Params.D
	}
	if cfg.Dwell <= 0 {
		cfg.Dwell = 4 * cfg.Interval
	}
	if cfg.PaceTicks <= 0 {
		cfg.PaceTicks = cfg.Params.D
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.RefuseScale <= 0 {
		cfg.RefuseScale = 64
	}
	c := &Controller{
		cfg:      cfg,
		done:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		missBase: -1,
		admitted: make(map[uint32]struct{}),
	}
	c.ladder = Ladder{Enter: ladderEnter, Exit: ladderExit, Dwell: cfg.Dwell}

	// Sensor handles, via get-or-create: the session layer registers the
	// same names with the same shapes, so both hold one instance.
	c.marginHist = cfg.Registry.Histogram("rstp_deadline_margin_ticks",
		"per-message deadline δ1·c2 minus the interwrite gap (negative = miss)", obs.MarginBuckets(0))
	c.refused = cfg.Registry.Counter("rstp_server_frames_refused_total",
		"new-session frames dropped at the MaxSessions cap")

	c.instrument(cfg.Registry)
	return c, nil
}

// Bind installs the actuators. Call before Start.
func (c *Controller) Bind(a Actuators) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acts = a
}

// Start launches the control loop. Idempotent.
func (c *Controller) Start() {
	c.startMu.Lock()
	defer c.startMu.Unlock()
	if c.started {
		return
	}
	c.started = true
	c.wg.Add(1)
	go c.loop()
}

// Stop halts the loop and releases any admission currently sleeping in
// the pacer (it proceeds unpaced rather than wedging its dialer).
// Idempotent; safe without a prior Start.
func (c *Controller) Stop() {
	c.startMu.Lock()
	defer c.startMu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	close(c.done)
	c.wg.Wait()
}

func (c *Controller) loop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Clock.Ticks(c.cfg.Interval))
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.tick()
		}
	}
}

// tick is one control-loop iteration: sense, score, step the ladder.
func (c *Controller) tick() {
	now := c.cfg.Clock.Now()
	margin := c.marginHist.Snapshot()
	refused := c.refused.Value()

	c.mu.Lock()
	defer c.mu.Unlock()
	win := obs.DeltaSnapshot(c.prevMargin, margin)
	dRefused := refused - c.prevRefused
	c.prevMargin, c.prevRefused = margin, refused

	// Pressure is the WORST single symptom, not the sum: summing would
	// let two mild symptoms buy a remedy neither justifies.
	//
	// Symptom 1: the deadline-miss fraction of this window's writes,
	// scored as the excess over its EWMA baseline. The margin
	// histogram's zero bucket splits the distribution exactly at the
	// deadline, so the cumulative count at LE=0 over the window count is
	// the fraction of writes that missed δ1·c2; the baseline calibrates
	// out the platform's steady-state miss rate (see missBaseAlpha) so
	// only a *worsening* — congestion onset — registers. A window with
	// no writes says nothing either way: a session that has not written
	// yet is not a stalled one.
	pressure := 0.0
	if win.Count >= missMinWindow {
		var misses int64
		for _, b := range win.Buckets {
			if !b.Inf && b.LE == 0 {
				misses = b.Count
				break
			}
		}
		frac := float64(misses) / float64(win.Count)
		if c.missBase < 0 {
			c.missBase = frac // first sample seeds the baseline
		}
		if mp := missPressureWeight * (frac - c.missBase); mp > pressure {
			pressure = mp
		}
		c.missBase += missBaseAlpha * (frac - c.missBase)
	}
	// Symptom 2: refusal rate. Frames already being turned away at the
	// server cap are overload by definition.
	if rp := float64(dRefused) / c.cfg.RefuseScale; rp > pressure {
		pressure = rp
	}

	level := c.ladder.Update(now, pressure)
	c.pressure = pressure
	c.ticks++
	c.levelTicks[level] += c.cfg.Interval
}

// sleepTicks blocks for the given tick count. It reports stopped=true
// when the controller shut down mid-sleep (callers admit rather than
// wedge their dialer) and a non-nil err when the caller's context died.
func (c *Controller) sleepTicks(ctx context.Context, ticks int64) (stopped bool, err error) {
	t := time.NewTimer(c.cfg.Clock.Ticks(ticks))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false, ctx.Err()
	case <-c.done:
		return true, nil
	case <-t.C:
		return false, nil
	}
}

// Admit implements session.AdmissionController: refuse at LevelRefuse+,
// pace (with seeded jitter) at LevelPace, hold at the occupancy gate
// while the receiver side is full (Config.TargetSessions), and record
// the ID as admitted.
func (c *Controller) Admit(ctx context.Context, id uint32) error {
	c.mu.Lock()
	level := c.ladder.Current()
	if level >= LevelRefuse {
		c.dialRefused++
		c.mu.Unlock()
		return session.ErrAdmissionRefused
	}
	var delay int64
	if level >= LevelPace {
		delay = c.cfg.PaceTicks + c.rng.Int63n(c.cfg.PaceTicks+1)
		c.paced++
		c.paceTicks += delay
	}
	c.mu.Unlock()

	if delay > 0 {
		if _, err := c.sleepTicks(ctx, delay); err != nil {
			return err
		}
	}

	// Occupancy gate: while the receiver side sits at its session target,
	// park here instead of transmitting frames that can only be refused.
	// Occupancy counts BOTH the live receiver sessions (Active) and this
	// controller's own in-flight admissions (admitted): a dial released
	// from the gate takes a whole channel round-trip to show up in
	// Active, and gating on Active alone would release every waiter into
	// that blind window at once. The ladder still applies while parked —
	// an escalation to refuse turns the wait into a refusal. Active is
	// called outside c.mu: Server.ActiveCount takes the server's lock, and
	// the server calls AdmitServer (which takes c.mu) while holding it.
	if c.cfg.TargetSessions > 0 {
		first := true
		for {
			c.mu.Lock()
			act := c.acts.Active
			inflight := int64(len(c.admitted))
			if c.ladder.Current() >= LevelRefuse {
				c.dialRefused++
				c.mu.Unlock()
				return session.ErrAdmissionRefused
			}
			c.mu.Unlock()
			occ := inflight
			if act != nil {
				if a := act(); a > occ {
					occ = a
				}
			}
			if occ < int64(c.cfg.TargetSessions) {
				break
			}
			c.mu.Lock()
			if first {
				c.gated++
				first = false
			}
			wait := c.cfg.Interval/2 + c.rng.Int63n(c.cfg.Interval/2+1)
			if wait < 1 {
				wait = 1
			}
			c.gateTicks += wait
			c.mu.Unlock()
			stopped, err := c.sleepTicks(ctx, wait)
			if err != nil {
				return err
			}
			if stopped {
				break
			}
		}
	}

	c.mu.Lock()
	c.admitted[id] = struct{}{}
	c.mu.Unlock()
	return nil
}

// AdmitServer implements session.AdmissionController. Admitted IDs are
// always accepted (their slot is spoken for) and unknown IDs — a remote
// dialer this controller never saw — track the ladder. Late frames of a
// retired session never get here: the server drops them at its own
// tombstone.
func (c *Controller) AdmitServer(id uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.admitted[id]; ok {
		return true
	}
	if c.ladder.Current() >= LevelRefuse {
		c.serverRefused++
		return false
	}
	return true
}

// Forget implements session.AdmissionController: the ID is no longer
// admitted.
func (c *Controller) Forget(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.admitted, id)
}

// State is the controller's introspection snapshot: the "control" live
// hook renders it at /control and rstpserve folds it into the summary.
type State struct {
	Level           string           `json:"level"`
	Pressure        float64          `json:"pressure"`
	Ticks           int64            `json:"ticks"`
	Paced           int64            `json:"paced"`
	PaceTicks       int64            `json:"pace_ticks"`
	Gated           int64            `json:"gated"`
	GateTicks       int64            `json:"gate_ticks"`
	DialRefused     int64            `json:"dial_refused"`
	ServerRefused   int64            `json:"server_refused"`
	LevelDwellTicks map[string]int64 `json:"level_dwell_ticks"`
}

// State snapshots the controller.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := State{
		Level:           c.ladder.Current().String(),
		Pressure:        c.pressure,
		Ticks:           c.ticks,
		Paced:           c.paced,
		PaceTicks:       c.paceTicks,
		Gated:           c.gated,
		GateTicks:       c.gateTicks,
		DialRefused:     c.dialRefused,
		ServerRefused:   c.serverRefused,
		LevelDwellTicks: make(map[string]int64, numLevels),
	}
	for i, ticks := range c.levelTicks {
		s.LevelDwellTicks[Level(i).String()] = ticks
	}
	return s
}

// instrument registers the controller's own metrics: every decision the
// loop makes is visible as an rstp_control_* series plus the "control"
// live hook.
func (c *Controller) instrument(reg *obs.Registry) {
	locked := func(fn func() int64) func() int64 {
		return func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return fn()
		}
	}
	reg.GaugeFunc("rstp_control_level",
		"escalation ladder level (0 normal, 1 pace, 2 refuse)",
		locked(func() int64 { return int64(c.ladder.Current()) }))
	reg.FloatFunc("rstp_control_pressure",
		"latest composite overload pressure (0 = healthy)", func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.pressure
		})
	reg.CounterFunc("rstp_control_ticks_total",
		"control loop iterations", locked(func() int64 { return c.ticks }))
	reg.CounterFunc("rstp_control_paced_total",
		"admissions delayed by pacing", locked(func() int64 { return c.paced }))
	reg.CounterFunc("rstp_control_pace_ticks_total",
		"total admission delay injected, in ticks", locked(func() int64 { return c.paceTicks }))
	reg.CounterFunc("rstp_control_gated_total",
		"admissions held at the occupancy gate", locked(func() int64 { return c.gated }))
	reg.CounterFunc("rstp_control_gate_ticks_total",
		"total occupancy-gate wait injected, in ticks", locked(func() int64 { return c.gateTicks }))
	reg.CounterFunc("rstp_control_dial_refused_total",
		"dialer admissions refused by the ladder", locked(func() int64 { return c.dialRefused }))
	reg.CounterFunc("rstp_control_server_refused_total",
		"unknown server sessions refused by the ladder", locked(func() int64 { return c.serverRefused }))
	for i := 0; i < numLevels; i++ {
		lvl := Level(i)
		reg.CounterFunc(fmt.Sprintf("rstp_control_dwell_%s_ticks_total", lvl),
			fmt.Sprintf("ticks spent at ladder level %q", lvl),
			locked(func() int64 { return c.levelTicks[lvl] }))
	}
	reg.Live("control", func() any { return c.State() })
}
