// Command rstpserve runs the concurrent session-serving subsystem: a
// receiver-side server and a transmitter-side load generator in one
// process, connected by an in-memory or UDP-loopback transport, running
// many RSTP sessions at once off a shared real-time clock.
//
// Usage:
//
//	rstpserve -sessions 256 -stack 'beta(k=4)'    # 256 concurrent sessions
//	rstpserve -transport udp -sessions 64         # over a UDP loopback pair
//	rstpserve -sessions 128 -loss 0.2 -fwindow 0:2000 -stack 'hardened(beta(k=4))'
//	rstpserve -transport udp -loss 0.12 -dup 0.05 -corrupt 0.03 -stack 'hardened(gamma(k=4))'
//	rstpserve -watchdog 4 -stack 'hardened(beta(k=4))'  # retire wedged sessions
//	rstpserve -store-dir /tmp/rstp -stack 'stabilized(beta(k=4))'  # durable crash-restart serving
//
// -stack takes a stack's one name, the "proto" key of the summary:
// alpha, beta(k=N), gamma(k=N) or rateless(k=N), optionally inside
// hardened(...) and then stabilized(...).
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
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

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
	Meta           obs.Meta `json:"meta"`
	Proto          string   `json:"proto"`
	Transport      string   `json:"transport"`
	Sessions       int      `json:"sessions"`
	Completed      int      `json:"completed"`
	Violations     int      `json:"violations"`
	Incomplete     int      `json:"incomplete"`
	Errors         int      `json:"errors"`
	BitsPerSession int      `json:"bits_per_session"`
	TickMicros     float64  `json:"tick_us"`
	WallMS         float64  `json:"wall_ms"`
	SessionsPerSec float64  `json:"sessions_per_sec"`
	GoodputMsgSec  float64  `json:"goodput_msgs_per_sec"`
	// AllocsPerWrite is heap allocations per message written, counted
	// over the transfer phase only (setup and summary excluded).
	AllocsPerWrite float64 `json:"allocs_per_write"`
	EffortMean     float64 `json:"effort_mean_ticks_per_msg"`
	EffortMax      float64 `json:"effort_max_ticks_per_msg"`
	EffortBound    float64 `json:"effort_bound_ticks_per_msg"`
	Sends          int     `json:"sends"`
	SendErrors     int     `json:"send_errors"`
	Deliveries     int     `json:"deliveries"`
	Writes         int     `json:"writes"`
	Refused        int     `json:"refused"`
	Late           int     `json:"late"`
	Stray          int     `json:"stray"`
	Faults         string  `json:"faults,omitempty"`
	// Watchdog counters plus UDP loss (see EXPERIMENTS.md E20).
	Wedged       int   `json:"wedged"`
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
		stackName   = fs.String("stack", "beta(k=4)", "protocol stack: alpha, beta(k=N), gamma(k=N) or rateless(k=N), optionally inside hardened(...) and then stabilized(...)")
		c1          = fs.Int64("c1", 2, "minimum step gap c1")
		c2          = fs.Int64("c2", 3, "maximum step gap c2")
		d           = fs.Int64("d", 12, "channel delay bound d")
		n           = fs.Int("n", 4, "input length per session, in blocks")
		tick        = fs.Duration("tick", transport.DefaultTick, "wall-clock length of one model tick")
		transName   = fs.String("transport", "mem", "transport: mem or udp")
		seed        = fs.Int64("seed", 1, "seed for inputs, delays and fault plans")
		storeDir    = fs.String("store-dir", "", "persist session checkpoints and output tapes into a journal in this directory (needs a stabilized -stack; restarting against the same directory with the same -seed resumes interrupted sessions)")
		idle        = fs.Int64("idle", -1, "server idle-eviction threshold in ticks (-1 = off; the load generator evicts each session explicitly)")
		loss        = fs.Float64("loss", 0, "drop probability inside -fwindow")
		dup         = fs.Float64("dup", 0, "duplication probability inside -fwindow")
		corrupt     = fs.Float64("corrupt", 0, "corruption probability inside -fwindow")
		fwindow     = fs.String("fwindow", "0:2000", "send-time window from:to for -loss/-dup/-corrupt")
		blackout    = fs.String("blackout", "", "blackout window from:to (empty = none)")
		excess      = fs.Int64("excess", 0, "extra delay beyond d inside -fwindow")
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
	spec, err := stack.Parse(*stackName)
	if err != nil {
		return fmt.Errorf("-stack: %w", err)
	}
	var store *journal.Store
	if *storeDir != "" {
		// Durable serving rides on the stabilized recovery layer: the
		// journal holds its checkpoints and the sessions' output tapes, and
		// Recover mode makes every (re)start load whatever the directory
		// already holds — empty on a first run, a mid-transfer snapshot
		// after a crash.
		if !spec.Stabilize {
			return fmt.Errorf("-store-dir needs a stabilized stack, e.g. -stack 'stabilized(%s)'", *stackName)
		}
		var jerr error
		store, jerr = journal.Open(*storeDir, journal.Options{Obs: reg})
		if jerr != nil {
			return fmt.Errorf("-store-dir: %w", jerr)
		}
		defer store.Close()
	}
	spec.Store, spec.Observer, spec.Seed, spec.Registry = storeOrNil(store), rstp.ObsObserver(reg), *seed, reg
	st, err := stack.Build(p, spec)
	if err != nil {
		return err
	}

	clauses, err := faults.Clauses(*loss, *dup, *corrupt, *excess, *fwindow, *blackout)
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
	pipeCfg := session.Config{
		Solution:         st.Builder,
		Params:           p,
		Transport:        trans,
		Clock:            clock,
		MaxSessions:      maxConc,
		IdleTicks:        *idle,
		WatchdogK:        *watchdog,
		Obs:              reg,
		EffortLowerBound: st.Lower,
		Store:            storeOrNil(store),
	}
	pipe, err := session.NewPipe(pipeCfg)
	if err != nil {
		trans.Close()
		return err
	}
	defer pipe.Close()

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

	bits := *n * st.BlockBits
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
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
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
	runtime.ReadMemStats(&memAfter)
	// Quiesce the flusher before anything else writes to out: the summary
	// must not interleave with a flush line.
	close(stopFlush)
	<-flushDone
	interrupted := ctx.Err() == context.Canceled // signal, not the -timeout deadline

	sum.Meta = obs.NewMeta("rstp-bench-serve/v1", time.Now().UTC().Format(time.RFC3339))
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
	if sum.Writes > 0 {
		sum.AllocsPerWrite = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(sum.Writes)
	}
	sum.Refused = pipe.Server.Refused()
	sum.Late = pipe.Server.Late()
	sum.Stray = pipe.Dialer.Stray()
	srvAgg := pipe.Server.Aggregate()
	sum.Wedged = srvAgg.Wedged
	sum.Resyncs = srvAgg.Resyncs
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
			fmt.Fprintf(out, "obs: active=%d writes=%d sends=%d deliveries=%d wedged=%d\n",
				s.Gauges["rstp_server_sessions_active"],
				s.Counters["rstp_session_writes_total"],
				s.Counters["rstp_session_sends_total"],
				s.Counters["rstp_session_deliveries_total"],
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
