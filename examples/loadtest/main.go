// Loadtest: a thousand concurrent RSTP sessions through the in-process
// serving subsystem, with a lossy fault window active for the first part
// of the run. Each session transfers its own random input over the
// hardened β(k=4) protocol; the in-memory transport's delay policy is a
// fault plan that drops and corrupts packets on top of the paper's
// channel axioms (delay ≤ d, arbitrary reorder). Every session's output
// tape must come back equal to its input — loss and corruption may cost
// effort, never correctness.
//
//	go run ./examples/loadtest
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro"
)

func main() {
	if err := run(1000); err != nil {
		log.Fatal(err)
	}
}

func run(sessions int) error {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	base, err := repro.Beta(p, 4)
	if err != nil {
		return err
	}
	// Hardened β: checksums + retransmission, so the fault plan below
	// cannot break completion, only slow it down.
	sol := repro.Harden(base, repro.HardenOptions{})

	// Channel: an in-memory transport whose delay policy is a fault plan
	// over uniform random delay within d — the same composition
	// rstpserve uses over mem — dropping 15% and corrupting 5% of packets
	// over the first 4000 ticks. The metrics registry reads the plan's
	// injection counters under the transport's own lock.
	rnd := rand.New(rand.NewSource(7))
	clock := repro.NewClock(100 * time.Microsecond)
	plan := repro.NewFaultPlan(7, repro.RandomDelay(p.D, rnd),
		repro.Fault{From: 0, To: 4000, Drop: 0.15, Corrupt: 0.05})
	mem := repro.NewMemTransport(clock, repro.MemOptions{D: p.D, Delay: plan, Buffer: 1 << 15})
	reg := repro.NewMetrics()
	repro.InstrumentTransport(reg, mem)
	pipe, err := repro.NewPipe(repro.ServeConfig{
		Solution:    sol,
		Params:      p,
		Transport:   mem,
		Clock:       clock,
		MaxSessions: 256, // backpressure: at most 256 sessions in flight
		IdleTicks:   -1,  // transfers are evicted explicitly below
	})
	if err != nil {
		return err
	}
	defer pipe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	rng := rand.New(rand.NewSource(42))
	inputs := make([][]repro.Bit, sessions)
	for i := range inputs {
		inputs[i] = repro.RandomBits(4*base.BlockBits, rng.Uint64)
	}

	start := time.Now()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
		failures  []string
	)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pipe.Transfer(ctx, inputs[i])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				failures = append(failures, fmt.Sprintf("session %d: %v", res.ID, err))
			case res.Violation != "":
				failures = append(failures, fmt.Sprintf("session %d: %s", res.ID, res.Violation))
			case !res.Completed:
				failures = append(failures, fmt.Sprintf("session %d: only %d/%d messages written",
					res.ID, res.RX.Writes, len(inputs[i])))
			default:
				completed++
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	agg := pipe.Server.Aggregate()
	injected := reg.Snapshot().Counters
	fmt.Printf("loadtest: %d sessions of %d bits over %s via %s\n",
		sessions, 4*base.BlockBits, sol, agg.Transport)
	fmt.Printf("chaos: %d packets affected, %d dropped, %d corrupted\n",
		injected["rstp_chaos_affected_total"], injected["rstp_chaos_dropped_total"], injected["rstp_chaos_corrupted_total"])
	fmt.Printf("completed %d/%d in %v (%.0f sessions/sec), server writes=%d refused=%d\n",
		completed, sessions, wall.Round(time.Millisecond),
		float64(completed)/wall.Seconds(), agg.Writes, agg.Refused)

	if len(failures) > 0 {
		for i, f := range failures {
			if i == 5 {
				fmt.Printf("... and %d more\n", len(failures)-5)
				break
			}
			fmt.Println(f)
		}
		return fmt.Errorf("%d of %d sessions failed", len(failures), sessions)
	}
	fmt.Println("every session's output equals its input: faults cost effort, not correctness")
	return nil
}
