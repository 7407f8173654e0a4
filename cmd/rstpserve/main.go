// Command rstpserve runs the concurrent session-serving subsystem: a
// receiver-side server and a transmitter-side load generator in one
// process, connected by an in-memory or UDP-loopback transport, running
// many RSTP sessions at once off a shared real-time clock.
//
// Usage:
//
//	rstpserve -sessions 256 -proto beta -k 4      # 256 concurrent sessions
//	rstpserve -transport udp -sessions 64         # over a UDP loopback pair
//	rstpserve -sessions 128 -loss 0.2 -fwindow 0:2000 -harden
//	rstpserve -transport udp -loss 0.12 -dup 0.05 -corrupt 0.03 -harden
//	rstpserve -shed evict-oldest-idle -watchdog 4 # overload + wedge defense
//	rstpserve -adaptive -sessions 128             # closed-loop overload control
//	rstpserve -store-dir /tmp/rstp -sessions 64   # durable crash-restart serving
//
// Every session's output tape is verified against its input: Y must be a
// prefix of X throughout and equal to X at completion. The tool prints a
// machine-readable JSON summary and exits nonzero if any session
// violates the prefix invariant or fails to complete — the same
// convention as rstpchaos.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/benchmatrix"
	"repro/internal/control"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/session"
	"repro/internal/stack"
	"repro/internal/transport"
	"repro/internal/wire"
)

// metricsReady, when non-nil, is called with the bound metrics address
// once the -metrics-addr listener is up. Tests hook it to scrape the
// endpoint of an in-process run without racing the listener.
var metricsReady func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstpserve:", err)
		os.Exit(1)
	}
}

// summary is the machine-readable report printed after a run. See
// EXPERIMENTS.md for the schema note.
type summary struct {
	Schema string `json:"schema"`
	// Meta stamps the artifact with provenance (commit, Go version,
	// GOMAXPROCS, wall clock) shared with every BENCH_*.json emitter.
	Meta           benchmatrix.Meta `json:"meta"`
	Proto          string           `json:"proto"`
	Transport      string           `json:"transport"`
	Sessions       int              `json:"sessions"`
	Completed      int              `json:"completed"`
	Violations     int              `json:"violations"`
	Incomplete     int              `json:"incomplete"`
	Errors         int              `json:"errors"`
	BitsPerSession int              `json:"bits_per_session"`
	TickMicros     float64          `json:"tick_us"`
	WallMS         float64          `json:"wall_ms"`
	SessionsPerSec float64          `json:"sessions_per_sec"`
	GoodputMsgSec  float64          `json:"goodput_msgs_per_sec"`
	EffortMean     float64          `json:"effort_mean_ticks_per_msg"`
	EffortMax      float64          `json:"effort_max_ticks_per_msg"`
	EffortBound    float64          `json:"effort_bound_ticks_per_msg"`
	Sends          int              `json:"sends"`
	SendErrors     int              `json:"send_errors"`
	Deliveries     int              `json:"deliveries"`
	Writes         int              `json:"writes"`
	Refused        int              `json:"refused"`
	Late           int              `json:"late"`
	Stray          int              `json:"stray"`
	Faults         string           `json:"faults,omitempty"`
	// Overload and watchdog counters plus UDP loss (see EXPERIMENTS.md
	// E20).
	Wedged       int   `json:"wedged"`
	Shed         int   `json:"shed"`
	Resyncs      int   `json:"resyncs"`
	UDPMalformed int64 `json:"udp_malformed"`
	UDPDropped   int64 `json:"udp_dropped"`
	// Fault-plan injection counters, on either transport.
	ChaosDropped    int64 `json:"chaos_dropped,omitempty"`
	ChaosDuplicated int64 `json:"chaos_duplicated,omitempty"`
	ChaosCorrupted  int64 `json:"chaos_corrupted,omitempty"`
	ChaosDelayed    int64 `json:"chaos_delayed,omitempty"`
	// Observability keys (PR 5; see EXPERIMENTS.md E21). EffortLowerBound
	// is the paper's per-protocol lower bound (Thm 5.3 r-passive, Thm 5.6
	// active); EffortGapMeanTicks is the mean of the live effort-gap
	// histogram (measured inter-write gap minus that bound). Interrupted
	// marks a summary flushed on SIGINT/SIGTERM rather than at completion.
	EffortLowerBound  float64 `json:"effort_lower_bound_ticks_per_msg"`
	EffortGapMean     float64 `json:"effort_gap_mean_ticks,omitempty"`
	DeadlineMarginP99 int64   `json:"deadline_margin_p99_ticks,omitempty"`
	Interrupted       bool    `json:"interrupted,omitempty"`
	MetricsAddr       string  `json:"metrics_addr,omitempty"`
	TraceDropped      int64   `json:"trace_dropped,omitempty"`
	// Durable-store keys (PR 6; see EXPERIMENTS.md E22), present only with
	// -store-dir. Resumed counts sessions that restarted with a persisted
	// output tape; the Journal* keys snapshot the checkpoint journal.
	// Adaptive-control keys (PR 7; see EXPERIMENTS.md E23), present only
	// with -adaptive: the controller's final ladder level, intervention
	// counters, the per-k admission histogram and the per-level dwell
	// times in ticks.
	ControlLevel     string           `json:"control_level,omitempty"`
	ControlPaced     int64            `json:"control_paced,omitempty"`
	ControlPaceTicks int64            `json:"control_pace_ticks,omitempty"`
	ControlGated     int64            `json:"control_gated,omitempty"`
	ControlRefused   int64            `json:"control_refused,omitempty"`
	ControlEvictions int64            `json:"control_evictions,omitempty"`
	ControlRetires   int64            `json:"control_retires,omitempty"`
	ControlKHist     map[string]int64 `json:"control_k_histogram,omitempty"`
	ControlDwell     map[string]int64 `json:"control_level_dwell_ticks,omitempty"`
	// Cross-family selection: the foreign row the controller is
	// currently admitting under ("" = the native family) and how many
	// times it crossed a family boundary.
	ControlSelected    string `json:"control_selected,omitempty"`
	ControlFamSwitches int64  `json:"control_family_switches,omitempty"`
	StoreDir           string `json:"store_dir,omitempty"`
	Resumed            int64  `json:"resumed,omitempty"`
	JournalSaves       int64  `json:"journal_saves,omitempty"`
	JournalSaveErrors  int64  `json:"journal_save_errors,omitempty"`
	JournalReplayed    int64  `json:"journal_replayed,omitempty"`
	JournalTruncations int64  `json:"journal_truncations,omitempty"`
	JournalCompactions int64  `json:"journal_compactions,omitempty"`
	JournalSizeBytes   int64  `json:"journal_size_bytes,omitempty"`
	JournalKeys        int64  `json:"journal_keys,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstpserve", flag.ContinueOnError)
	var (
		sessions    = fs.Int("sessions", 32, "number of sessions to transfer")
		conc        = fs.Int("conc", 0, "max concurrent sessions (default min(sessions, 512))")
		proto       = fs.String("proto", "beta", "protocol: alpha, beta, gamma or rateless")
		k           = fs.Int("k", 4, "packet alphabet size (beta/gamma/rateless)")
		c1          = fs.Int64("c1", 2, "minimum step gap c1")
		c2          = fs.Int64("c2", 3, "maximum step gap c2")
		d           = fs.Int64("d", 12, "channel delay bound d")
		n           = fs.Int("n", 4, "input length per session, in blocks")
		tick        = fs.Duration("tick", transport.DefaultTick, "wall-clock length of one model tick")
		transName   = fs.String("transport", "mem", "transport: mem or udp")
		seed        = fs.Int64("seed", 1, "seed for inputs, delays and fault plans")
		harden      = fs.Bool("harden", false, "wrap sessions in the hardened reliability layer")
		stabilize   = fs.Bool("stabilize", false, "wrap sessions in the stabilizing recovery layer")
		storeDir    = fs.String("store-dir", "", "persist session checkpoints and output tapes into a journal in this directory (implies -stabilize; restarting against the same directory with the same -seed resumes interrupted sessions)")
		idle        = fs.Int64("idle", -1, "server idle-eviction threshold in ticks (-1 = off; the load generator evicts each session explicitly)")
		loss        = fs.Float64("loss", 0, "drop probability inside -fwindow")
		dup         = fs.Float64("dup", 0, "duplication probability inside -fwindow")
		corrupt     = fs.Float64("corrupt", 0, "corruption probability inside -fwindow")
		fwindow     = fs.String("fwindow", "0:2000", "send-time window from:to for -loss/-dup/-corrupt")
		blackout    = fs.String("blackout", "", "blackout window from:to (empty = none)")
		excess      = fs.Int64("excess", 0, "extra delay beyond d inside -fwindow")
		shed        = fs.String("shed", "refuse", "overload policy at the -conc cap: refuse or evict-oldest-idle")
		adaptive    = fs.Bool("adaptive", false, "run the closed-loop control plane: occupancy-gated/paced admission, per-session k-selection from the paper's bound tables (beta/gamma; with -store-dir the chosen k is journaled and restarts resume under it) and the shed-escalation ladder")
		watchdog    = fs.Int("watchdog", 0, "progress watchdog multiplier k: wedge a session after k*delta1*c2 ticks without output growth (0 = off)")
		verbose     = fs.Bool("v", false, "print one line per session")
		timeout     = fs.Duration("timeout", 2*time.Minute, "overall run deadline")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics (Prometheus text), /metrics.json (snapshot with live session table) and /debug/pprof on this address (empty = off)")
		trace       = fs.Bool("trace", false, "record per-session protocol event traces into bounded ring buffers (visible in the JSON snapshot)")
		flush       = fs.Duration("flush", 0, "print a one-line observability summary at this interval while the run is in flight (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The registry always exists — with no -metrics-addr/-trace it costs a
	// handful of atomics on the hot path and nothing is ever scraped.
	reg := obs.NewRegistry()
	if *trace {
		reg.Tracer().Enable(512, 1024)
	}

	p := rstp.Params{C1: *c1, C2: *c2, D: *d}
	var store *journal.Store
	if *storeDir != "" {
		// Durable serving rides on the stabilized recovery layer: the
		// journal holds its checkpoints and the sessions' output tapes, and
		// Recover mode makes every (re)start load whatever the directory
		// already holds — empty on a first run, a mid-transfer snapshot
		// after a crash.
		*stabilize = true
		var jerr error
		store, jerr = journal.Open(*storeDir, journal.Options{Obs: reg})
		if jerr != nil {
			return fmt.Errorf("-store-dir: %w", jerr)
		}
		defer store.Close()
	}
	spec := stack.Spec{
		Proto: *proto, K: *k, Harden: *harden, Stabilize: *stabilize,
		Store: storeOrNil(store), Observer: rstp.ObsObserver(reg), Seed: *seed, Registry: reg,
	}
	st, err := stack.Build(p, spec)
	if err != nil {
		return err
	}

	clauses, err := faults.Clauses(*loss, *dup, *corrupt, *excess, *fwindow, *blackout)
	if err != nil {
		return err
	}

	shedPolicy, err := parseShed(*shed)
	if err != nil {
		return err
	}
	if *watchdog < 0 {
		return fmt.Errorf("-watchdog %d: the multiplier must be >= 0 (0 disables the watchdog)", *watchdog)
	}

	clock := transport.NewClock(*tick)
	trans, faultsDesc, err := transport.Open(*transName, clock, p.D, *seed, clauses)
	if err != nil {
		return err
	}
	transport.Instrument(reg, trans)

	maxConc := *conc
	if maxConc <= 0 {
		maxConc = *sessions
		if maxConc > 512 {
			maxConc = 512
		}
	}
	// The adaptive control plane: built before the mux (it is the mux's
	// Admission hook), bound to its actuators after (the Server provides
	// them).
	var ctrl *control.Controller
	kBlock := st.BlockBits
	if *adaptive {
		if *proto == "rateless" {
			trans.Close()
			return fmt.Errorf("-adaptive needs a retransmission family as the native protocol (alpha, beta, gamma); rateless rides in its candidate set instead")
		}
		var cands []control.Candidate
		cands, kBlock = adaptiveCandidates(p, spec, st)
		ctrl, err = control.New(control.Config{
			Registry: reg, Clock: clock, Params: p,
			Candidates:     cands,
			Store:          storeOrNil(store),
			Seed:           *seed,
			TargetSessions: maxConc,
		})
		if err != nil {
			trans.Close()
			return err
		}
	}

	pipeCfg := session.Config{
		Solution:         st.Builder,
		Params:           p,
		Transport:        trans,
		Clock:            clock,
		MaxSessions:      maxConc,
		IdleTicks:        *idle,
		Shed:             shedPolicy,
		WatchdogK:        *watchdog,
		Obs:              reg,
		EffortLowerBound: st.Lower,
		Store:            storeOrNil(store),
	}
	if ctrl != nil {
		pipeCfg.Admission = ctrl
	}
	pipe, err := session.NewPipe(pipeCfg)
	if err != nil {
		trans.Close()
		return err
	}
	defer pipe.Close()

	if ctrl != nil {
		ctrl.Bind(control.Actuators{
			Active:        func() int64 { return int64(pipe.Server.ActiveCount()) },
			EvictOldest:   pipe.Server.ShedOldest,
			RetireStalled: pipe.Server.RetireStalled,
		})
		ctrl.Start()
		defer ctrl.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	// SIGINT/SIGTERM cancel the in-flight transfers; the summary below is
	// still computed and flushed, marked "interrupted": true. Installed
	// before metricsReady fires so a test may signal as soon as it is told
	// the run is up.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var boundAddr string
	if *metricsAddr != "" {
		msrv, err := reg.Serve(*metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		defer msrv.Close()
		boundAddr = msrv.Addr()
		fmt.Fprintf(out, "metrics listening on http://%s/metrics\n", boundAddr)
		if metricsReady != nil {
			metricsReady(boundAddr)
		}
	}

	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	if *flush > 0 {
		go flushLoop(ctx, stopFlush, reg, out, *flush, flushDone)
	} else {
		close(flushDone)
	}

	// With k-selection on, the input length is a block multiple of every
	// candidate alphabet, so a retuned admission never rejects its input.
	bits := *n * kBlock
	rng := rand.New(rand.NewSource(*seed))
	inputs := make([][]wire.Bit, *sessions)
	for i := range inputs {
		inputs[i] = wire.RandomBits(bits, rng.Uint64)
	}

	sum := summary{
		Schema:         "rstp-bench-serve/v1",
		Proto:          st.Builder.String(),
		Transport:      trans.Name(),
		Sessions:       *sessions,
		BitsPerSession: bits,
		TickMicros:     float64(clock.Tick()) / float64(time.Microsecond),
		EffortBound:    st.Upper,
		Faults:         faultsDesc,
	}
	// Each outcome folds into the summary as its transfer returns, so the
	// run holds no TransferResult (trace included) past its own session.
	// Only the -v lines are kept, to print in session order at the end.
	var (
		mu      sync.Mutex
		effortN int
		lines   []string
	)
	if *verbose {
		lines = make([]string, *sessions)
	}
	fold := func(i int, res session.TransferResult, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			sum.Errors++
		}
		if res.Violation != "" {
			sum.Violations++
		}
		if res.Completed {
			sum.Completed++
		} else {
			sum.Incomplete++
		}
		sum.Sends += res.TX.Sends + res.RX.Sends
		sum.Deliveries += res.TX.Deliveries + res.RX.Deliveries
		sum.Writes += res.RX.Writes
		sum.SendErrors += res.TX.SendErrors + res.RX.SendErrors
		// Effort statistics are over completed sessions only (the schema's
		// documented population): an incomplete session's last send tick
		// says nothing about the per-message cost the bound quantifies.
		if e := res.Effort(); e > 0 && res.Completed {
			sum.EffortMean += e
			effortN++
			if e > sum.EffortMax {
				sum.EffortMax = e
			}
		}
		if lines != nil {
			lines[i] = fmt.Sprintf("session %d: completed=%v writes=%d/%d effort=%.2f err=%v violation=%q\n",
				res.ID, res.Completed, res.RX.Writes, len(inputs[i]), res.Effort(), err, res.Violation)
		}
	}
	// One worker per dialer slot takes the sessions in order: more
	// goroutines would only queue on the slots, each holding a stack.
	start := time.Now()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < min(maxConc, *sessions); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *sessions {
					return
				}
				var (
					res session.TransferResult
					err error
				)
				if store != nil {
					// Durable runs pin session IDs to input indices: a
					// restart against the same directory and -seed re-runs
					// session i+1 with the same input, so its persisted
					// state is resumed instead of orphaned under a fresh ID.
					res, err = pipe.TransferID(ctx, uint32(i+1), inputs[i])
				} else {
					res, err = pipe.Transfer(ctx, inputs[i])
				}
				fold(i, res, err)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	// Quiesce the flusher before anything else writes to out: the summary
	// must not interleave with a flush line.
	close(stopFlush)
	<-flushDone
	interrupted := ctx.Err() == context.Canceled // signal, not the -timeout deadline

	sum.Meta = benchmatrix.NewMeta("rstp-bench-serve/v1", time.Now().UTC().Format(time.RFC3339))
	sum.WallMS = float64(wall) / float64(time.Millisecond)
	for _, line := range lines {
		fmt.Fprint(out, line)
	}
	if effortN > 0 {
		sum.EffortMean /= float64(effortN)
	}
	if secs := wall.Seconds(); secs > 0 {
		sum.SessionsPerSec = float64(sum.Completed) / secs
		sum.GoodputMsgSec = float64(sum.Writes) / secs
	}
	sum.Refused = pipe.Server.Refused()
	sum.Late = pipe.Server.Late()
	sum.Stray = pipe.Dialer.Stray()
	srvAgg := pipe.Server.Aggregate()
	sum.Wedged = srvAgg.Wedged
	sum.Shed = pipe.Server.Shed()
	sum.Resyncs = srvAgg.Resyncs
	if ctrl != nil {
		cs := ctrl.State()
		sum.ControlLevel = cs.Level
		sum.ControlPaced = cs.Paced
		sum.ControlPaceTicks = cs.PaceTicks
		sum.ControlGated = cs.Gated
		sum.ControlRefused = cs.DialRefused + cs.ServerRefused
		sum.ControlEvictions = cs.Evictions
		sum.ControlRetires = cs.Retires
		sum.ControlKHist = cs.KHistogram
		sum.ControlDwell = cs.LevelDwellTicks
		sum.ControlSelected = cs.Selected
		sum.ControlFamSwitches = cs.FamilySwitches
	}
	sum.EffortLowerBound = st.Lower
	sum.Interrupted = interrupted
	sum.MetricsAddr = boundAddr
	snap := reg.Snapshot()
	sum.UDPMalformed = snap.Counters["rstp_udp_malformed_total"]
	sum.UDPDropped = snap.Counters["rstp_udp_dropped_total"]
	sum.ChaosDropped = snap.Counters["rstp_chaos_dropped_total"]
	sum.ChaosDuplicated = snap.Counters["rstp_chaos_duplicated_total"]
	sum.ChaosCorrupted = snap.Counters["rstp_chaos_corrupted_total"]
	sum.ChaosDelayed = snap.Counters["rstp_chaos_delayed_total"]
	if h, ok := snap.Histograms["rstp_effort_gap_ticks"]; ok && h.Count > 0 {
		sum.EffortGapMean = h.Mean
	}
	if h, ok := snap.Histograms["rstp_deadline_margin_ticks"]; ok {
		sum.DeadlineMarginP99 = obs.BucketQuantile(h, 0.99)
	}
	if *trace {
		sum.TraceDropped = reg.Tracer().Dropped()
	}
	if store != nil {
		st := store.Stats()
		sum.StoreDir = *storeDir
		sum.Resumed = snap.Counters["rstp_sessions_resumed_total"]
		sum.JournalSaves = st.Saves
		sum.JournalSaveErrors = st.SaveErrors
		sum.JournalReplayed = st.Replayed
		sum.JournalTruncations = st.Truncations
		sum.JournalCompactions = st.Compactions
		sum.JournalSizeBytes = st.Size
		sum.JournalKeys = st.Keys
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		return err
	}
	if sum.Violations > 0 {
		return fmt.Errorf("%d of %d sessions violated the prefix invariant", sum.Violations, *sessions)
	}
	if sum.Completed != *sessions {
		if interrupted {
			// Operator-initiated shutdown: the summary above is the flush;
			// incomplete sessions are expected, not a failure.
			return nil
		}
		return fmt.Errorf("%d of %d sessions did not complete (errors: %d)", sum.Incomplete, *sessions, sum.Errors)
	}
	return nil
}

// flushLoop prints a compact observability line every interval until the
// run finishes (stop) or is cancelled, then signals done. It is the only
// goroutine writing to out while transfers are in flight.
func flushLoop(ctx context.Context, stop <-chan struct{}, reg *obs.Registry, out io.Writer, interval time.Duration, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-stop:
			return
		case <-t.C:
			s := reg.Snapshot()
			fmt.Fprintf(out, "obs: active=%d writes=%d sends=%d deliveries=%d shed=%d wedged=%d\n",
				s.Gauges["rstp_server_sessions_active"],
				s.Counters["rstp_session_writes_total"],
				s.Counters["rstp_session_sends_total"],
				s.Counters["rstp_session_deliveries_total"],
				s.Counters["rstp_sessions_shed_total"],
				s.Counters["rstp_sessions_wedged_total"])
		}
	}
}

// storeOrNil converts a possibly-nil *journal.Store into an interface
// value that is truly nil when the store is absent (a typed nil inside a
// non-nil interface would defeat every `!= nil` gate downstream).
func storeOrNil(s *journal.Store) rstp.StateStore {
	if s == nil {
		return nil
	}
	return s
}

// adaptiveCandidates assembles the -adaptive selection table from the
// served stack st and its spec. The served stack is the first row, which
// makes its family the controller's native family. Native rows are the
// configured k and its doubling (effort falls with log k, so one
// doubling is the meaningful escape hatch under slowdown); alpha has
// none, since a binary alphabet has no k to select. Cross-family rows are the families whose effort
// upper bound the native one cannot reach under slowdown: serving beta,
// the active gamma (a full round trip per burst but a tighter bound)
// and the rateless pair (no inter-burst wait at all); serving gamma,
// only rateless. Every row is wrapped exactly like the served stack —
// except rateless, which is always bare — and a row that fails to build
// is simply absent: the controller then holds what it has, which is the
// safe default. Durable runs keep the full set because the controller
// records each session's chosen row in the store ("s<id>/k") and resumes
// under it after a restart. The second result is the lcm of every
// row's block size, which the input length must be a multiple of.
func adaptiveCandidates(p rstp.Params, spec stack.Spec, st stack.Stack) ([]control.Candidate, int) {
	if spec.Proto == "alpha" {
		return nil, st.BlockBits
	}
	cands := []control.Candidate{{Proto: spec.Proto, K: spec.K, Builder: st.Builder, Lower: st.Lower, Upper: st.Upper}}
	block := st.BlockBits
	add := func(proto string, k int) {
		s := spec
		s.Proto, s.K = proto, k
		if proto == "rateless" {
			s.Harden, s.Stabilize = false, false // natively loss-tolerant; restarts recover through the cumulative ack
		}
		row, err := stack.Build(p, s)
		if err != nil {
			return
		}
		cands = append(cands, control.Candidate{Proto: proto, K: k, Builder: row.Builder, Lower: row.Lower, Upper: row.Upper})
		block = lcmInt(block, row.BlockBits)
	}
	add(spec.Proto, 2*spec.K)
	switch spec.Proto {
	case "beta":
		add("gamma", spec.K)
		add("rateless", spec.K)
	case "gamma":
		add("rateless", spec.K)
	}
	return cands, block
}

func lcmInt(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// parseShed maps the -shed flag onto a session.ShedPolicy.
func parseShed(s string) (session.ShedPolicy, error) {
	switch s {
	case "refuse", "":
		return session.ShedRefuse, nil
	case "evict-oldest-idle":
		return session.ShedEvictOldestIdle, nil
	default:
		return 0, fmt.Errorf("unknown -shed policy %q (refuse, evict-oldest-idle)", s)
	}
}
