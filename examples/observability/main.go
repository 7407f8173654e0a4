// Observability: the serving stack under full instrumentation. A lossy
// hardened-β load runs through an instrumented pipe while the metrics
// endpoint is live; we scrape our own /metrics and /metrics.json the way
// a Prometheus collector would, watch the live session table mid-flight,
// and read one session's protocol trace ring afterwards.
//
// The interesting metric is rstp_effort_gap_ticks: the measured gap
// between consecutive output writes minus the paper's Theorem 5.3 lower
// bound δ1·c2/log2 ζ_k(δ1) — how far the running system sits above the
// information-theoretic floor, live.
//
//	go run ./examples/observability
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro"
)

func main() {
	if err := run(64); err != nil {
		log.Fatal(err)
	}
}

func run(sessions int) error {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	base, err := repro.Beta(p, 4)
	if err != nil {
		return err
	}

	// One registry instruments every layer: the session endpoints (via
	// ServeConfig.Obs), the hardened wrapper (via the layer observer) and
	// the transport with its fault plan (via InstrumentTransport).
	// Tracing is bounded: 256 events per session, 64 sessions.
	reg := repro.NewMetrics()
	reg.Tracer().Enable(256, 64)
	sol := repro.Harden(base, repro.HardenOptions{Observer: repro.NewLayerObserver(reg)})

	rnd := rand.New(rand.NewSource(3))
	clock := repro.NewClock(100 * time.Microsecond)
	// The channel drops 15% of packets over its first 3000 ticks: the
	// plan is Mem's delay policy, so the delivery histogram sees it too.
	plan := repro.NewFaultPlan(3, repro.RandomDelay(p.D, rnd),
		repro.Fault{From: 0, To: 3000, Drop: 0.15})
	mem := repro.NewMemTransport(clock, repro.MemOptions{D: p.D, Delay: plan, Buffer: 1 << 15})
	repro.InstrumentTransport(reg, mem)

	pipe, err := repro.NewPipe(repro.ServeConfig{
		Solution:         sol,
		Params:           p,
		Transport:        mem,
		Clock:            clock,
		MaxSessions:      64,
		IdleTicks:        -1,
		Obs:              reg,
		EffortLowerBound: repro.PassiveLowerBound(p, 4),
	})
	if err != nil {
		return err
	}
	defer pipe.Close()

	// The introspection endpoint: /metrics, /metrics.json, /trace, pprof.
	msrv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer msrv.Close()
	fmt.Printf("scraping ourselves at http://%s/metrics\n\n", msrv.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rng := rand.New(rand.NewSource(17))
	inputs := make([][]repro.Bit, sessions)
	for i := range inputs {
		inputs[i] = repro.RandomBits(8*base.BlockBits, rng.Uint64)
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(x []repro.Bit) {
			defer wg.Done()
			res, err := pipe.Transfer(ctx, x)
			if err != nil {
				errs <- err
			} else if !res.Completed || res.Violation != "" {
				errs <- fmt.Errorf("session %d: completed=%v violation=%q", res.ID, res.Completed, res.Violation)
			}
		}(inputs[i])
	}

	// Mid-flight: the live session table, straight off the server.
	time.Sleep(50 * time.Millisecond)
	live := pipe.Server.LiveSessions()
	fmt.Printf("live mid-run: %d receiver sessions in flight", len(live))
	if len(live) > 0 {
		ls := live[0]
		fmt.Printf("; session %d: writes=%d effort=%.1f ticks/msg gap=+%.1f over the Thm 5.3 floor",
			ls.ID, ls.Writes, ls.EffortTicks, ls.EffortGapTicks)
	}
	fmt.Println()

	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}

	// Final scrape, exactly as a collector would see it.
	expo, err := scrape("http://" + msrv.Addr() + "/metrics")
	if err != nil {
		return err
	}
	fmt.Println("\nselected series from /metrics:")
	for _, line := range strings.Split(expo, "\n") {
		for _, prefix := range []string{
			"rstp_session_writes_total", "rstp_session_sends_total",
			"rstp_layer_retransmits_total", "rstp_chaos_dropped_total",
			"rstp_deadline_ticks", "rstp_effort_bound_ticks",
			"rstp_interwrite_ticks_count", "rstp_effort_gap_ticks_sum",
			"rstp_transport_delivery_ticks_count",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
			}
		}
	}

	// One session's protocol trace ring: the transitions behind the sums.
	traces := reg.Tracer().Snapshot()
	if len(traces) > 0 {
		tr := traces[0]
		n := len(tr.Events)
		fmt.Printf("\ntrace ring for session %d: %d events recorded, last 5:\n", tr.Session, tr.Total)
		for _, ev := range tr.Events[max(0, n-5):] {
			fmt.Printf("  tick %6d  %-6s arg=%d\n", ev.Tick, ev.KindName, ev.Arg)
		}
	}
	fmt.Println("\nevery session completed while being watched: observation cost atomics, not correctness")
	return nil
}

// scrape GETs one URL and returns the body.
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}
