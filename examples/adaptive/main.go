// Adaptive: the serving stack under closed-loop overload control. A
// session flood three times the server's capacity runs through a pipe
// whose admission is owned by the adaptive controller: dials queue at
// the occupancy gate until a receiver slot frees (instead of burning
// their deadline against a full server), pacing and refusal engage if
// the measured deadline-miss rate or refusal rate worsens, and every
// admission picks its packet-alphabet size k from the paper's effort
// bound tables against the live slowdown. Admitted sessions are never
// shed: the controller turns load away at the door or not at all.
//
// The run prints the goodput and the controller's own accounting — the
// ladder level it ended at, how many admissions it gated or paced, and
// the per-k admission histogram.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	if err := run(48); err != nil {
		log.Fatal(err)
	}
}

func run(sessions int) error {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	const slots = 8 // receiver capacity the flood will exceed 3×

	// Two candidate alphabets for k-selection, both hardened and sharing
	// one layer observer, each carrying its Lemma 6.1 effort upper bound.
	// The first row is the served stack. The input length below (a
	// multiple of both block sizes) guarantees a mid-run retune never
	// hands a session an input its builder rejects.
	reg := repro.NewMetrics()
	lo := repro.NewLayerObserver(reg)
	var cands []repro.ControlCandidate
	blockBits := 1
	for _, k := range []int{4, 8} {
		s, err := repro.Beta(p, k)
		if err != nil {
			return err
		}
		cands = append(cands, repro.ControlCandidate{
			Proto: "beta", K: k, Builder: repro.Harden(s, repro.HardenOptions{Observer: lo}),
			Upper: repro.BetaUpperBound(p, k),
		})
		blockBits = lcm(blockBits, s.BlockBits)
	}

	clock := repro.NewClock(50 * time.Microsecond)
	rnd := rand.New(rand.NewSource(7))
	mem := repro.NewMemTransport(clock, repro.MemOptions{D: p.D, Delay: repro.RandomDelay(p.D, rnd), Buffer: 1 << 14})
	defer mem.Close()
	repro.InstrumentTransport(reg, mem)

	// The controller is built first (it is the mux's admission hook),
	// wired as Admission on the shared ServeConfig, then bound to the
	// server's occupancy count once the pipe exists and started.
	ctrl, err := repro.NewController(repro.ControlConfig{
		Registry: reg, Clock: clock, Params: p,
		Candidates:     cands,
		Seed:           7,
		TargetSessions: slots,
	})
	if err != nil {
		return err
	}

	pipe, err := repro.NewPipe(repro.ServeConfig{
		Solution:    cands[0].Builder,
		Params:      p,
		Transport:   mem,
		Clock:       clock,
		MaxSessions: slots,
		IdleTicks:   -1, // slots are reclaimed per transfer
		Obs:         reg,
		Admission:   ctrl,
	})
	if err != nil {
		return err
	}
	defer pipe.Close()

	ctrl.Bind(repro.ControlActuators{Active: func() int64 { return int64(pipe.Server.ActiveCount()) }})
	ctrl.Start()
	defer ctrl.Stop()

	// The flood: 3× capacity in concurrent transfer workers. Refused
	// dials (the ladder's refuse rung) count separately from failures.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var completed, failed, refused atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, 3*slots)
	inrnd := rand.New(rand.NewSource(11))
	for i := 0; i < sessions; i++ {
		x := repro.RandomBits(8*blockBits, inrnd.Uint64)
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r, err := pipe.Transfer(ctx, x)
			switch {
			case errors.Is(err, repro.ErrAdmissionRefused):
				refused.Add(1)
			case err != nil || !r.Completed:
				failed.Add(1)
			default:
				completed.Add(1)
			}
			if r.Violation != "" {
				log.Fatalf("prefix violation: %s", r.Violation)
			}
		}()
	}
	wg.Wait()

	st := ctrl.State()
	fmt.Printf("flood: %d sessions over %d receiver slots\n", sessions, slots)
	fmt.Printf("goodput: %d completed, %d failed, %d refused\n",
		completed.Load(), failed.Load(), refused.Load())
	fmt.Printf("controller: level=%s gated=%d paced=%d k_histogram=%v\n",
		st.Level, st.Gated, st.Paced, st.KHistogram)
	fmt.Printf("dwell ticks per level: %v\n", st.LevelDwellTicks)
	if completed.Load() == 0 {
		return fmt.Errorf("no session completed under control")
	}
	return nil
}

func lcm(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}
