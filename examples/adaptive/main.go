// Adaptive: the serving stack under closed-loop overload control. A
// session flood three times the server's capacity runs through a pipe
// whose admission is owned by the adaptive controller: dials queue at
// the occupancy gate until a receiver slot frees (instead of burning
// their deadline against a full server), pacing and refusal engage if
// the measured deadline-miss rate or refusal rate worsens. Every session
// runs the one served stack, hardened β(4). Admitted sessions are never
// shed: the controller turns load away at the door or not at all.
//
// The run prints the goodput and the controller's own accounting — the
// ladder level it ended at and how many admissions it gated or paced.
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

	// The served stack: hardened β(4), reporting to the shared registry.
	reg := repro.NewMetrics()
	s, err := repro.Beta(p, 4)
	if err != nil {
		return err
	}
	solution := repro.Harden(s, repro.HardenOptions{Observer: repro.NewLayerObserver(reg)})

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
		Seed:           7,
		TargetSessions: slots,
	})
	if err != nil {
		return err
	}

	pipe, err := repro.NewPipe(repro.ServeConfig{
		Solution:    solution,
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
		x := repro.RandomBits(8*s.BlockBits, inrnd.Uint64)
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
	fmt.Printf("controller: level=%s gated=%d paced=%d\n", st.Level, st.Gated, st.Paced)
	fmt.Printf("dwell ticks per level: %v\n", st.LevelDwellTicks)
	if completed.Load() == 0 {
		return fmt.Errorf("no session completed under control")
	}
	return nil
}
