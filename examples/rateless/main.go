// Rateless: fountain-coded sessions through a lossy window, against the
// retransmission stack the code replaces. Each session's input rides as
// per-block LT-coded symbols — the transmitter streams deterministic
// seeded combinations of a block's packet multiset until the receiver's
// decode ack cuts the stream — so a dropped packet costs one extra coded
// symbol, not a retransmission round trip. The channel's fault plan
// drops 15% of everything for the first part of the run; every output tape
// must still come back equal to its input, and the symbols-per-block
// histogram shows the coding overhead loss actually cost.
//
//	go run ./examples/rateless
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
	if err := run(256); err != nil {
		log.Fatal(err)
	}
}

func run(sessions int) error {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	reg := repro.NewMetrics()
	sol, err := repro.NewRatelessBuilder(repro.RatelessOptions{Params: p, K: 4, Seed: 11, Obs: reg})
	if err != nil {
		return err
	}

	// Channel: the axiom-enforcing in-memory transport with a fault plan
	// as its delay policy, dropping 15% of packets — coded symbols and
	// decode acks alike — over its first 6000 ticks. No hardened wrapper
	// anywhere: loss tolerance is the code's own property.
	rnd := rand.New(rand.NewSource(11))
	clock := repro.NewClock(100 * time.Microsecond)
	plan := repro.NewFaultPlan(11, repro.RandomDelay(p.D, rnd),
		repro.Fault{From: 0, To: 6000, Drop: 0.15})
	mem := repro.NewMemTransport(clock, repro.MemOptions{D: p.D, Delay: plan, Buffer: 1 << 15})
	repro.InstrumentTransport(reg, mem)
	pipe, err := repro.NewPipe(repro.ServeConfig{
		Solution:         sol,
		Params:           p,
		Transport:        mem,
		Clock:            clock,
		MaxSessions:      128,
		IdleTicks:        -1,
		Obs:              reg,
		EffortLowerBound: repro.RatelessLowerBound(p, 4),
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
		inputs[i] = repro.RandomBits(4*sol.BlockBits(), rng.Uint64)
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

	snap := reg.Snapshot()
	affected, dropped := snap.Counters["rstp_chaos_affected_total"], snap.Counters["rstp_chaos_dropped_total"]
	sent := snap.Counters["rstp_rateless_symbols_sent_total"]
	decoded := snap.Counters["rstp_rateless_blocks_decoded_total"]
	fmt.Printf("rateless: %d sessions of %d bits over %s (bound %.2f vs beta's %.2f ticks/msg)\n",
		sessions, 4*sol.BlockBits(), sol, repro.RatelessUpperBound(p, 4), repro.BetaUpperBound(p, 4))
	fmt.Printf("chaos: %d packets affected, %d dropped\n", affected, dropped)
	if h, ok := snap.Histograms["rstp_rateless_symbols_per_block"]; ok && decoded > 0 {
		// n = δ1 source symbols per block: the histogram's distance from n
		// is what loss cost — extra coded symbols, not round trips.
		fmt.Printf("decoded %d blocks from %d coded symbols (%.2f symbols/block vs n=%d source symbols)\n",
			decoded, sent, h.Mean, p.Delta1())
	}
	fmt.Printf("completed %d/%d in %v (%.0f sessions/sec)\n",
		completed, sessions, wall.Round(time.Millisecond), float64(completed)/wall.Seconds())

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
	fmt.Println("every session's output equals its input: loss cost coded symbols, never correctness")
	return nil
}
