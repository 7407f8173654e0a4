// Adaptive: the serving stack behind the occupancy gate. A dialer with
// three times the server's receiver slots floods it with sessions; the
// controller parks each new dial while the receiver side is full, so
// waiting work queues before it sends a frame instead of being refused
// at the server. Every session runs the one served stack, hardened
// β(4), and every admitted session runs to completion.
//
// The run prints the goodput and the gate's own accounting: how many
// dials it held and for how many ticks in total.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	res, err := run(48)
	if err != nil {
		log.Fatal(err)
	}
	if res.completed != res.sessions {
		log.Fatalf("%d of %d sessions did not complete", res.sessions-res.completed, res.sessions)
	}
}

// result is one flood's outcome.
type result struct {
	sessions, completed, violations int
	gate                            repro.ControlState
}

func run(sessions int) (result, error) {
	p := repro.Params{C1: 2, C2: 3, D: 12}
	const slots = 8 // receiver capacity; the dialer has 3× as many

	// The served stack: hardened β(4), reporting to the shared registry.
	reg := repro.NewMetrics()
	s, err := repro.Beta(p, 4)
	if err != nil {
		return result{}, err
	}
	solution := repro.Harden(s, repro.HardenOptions{Observer: repro.NewLayerObserver(reg)})

	clock := repro.NewClock(50 * time.Microsecond)
	rnd := rand.New(rand.NewSource(7))
	mem := repro.NewMemTransport(clock, repro.MemOptions{D: p.D, Delay: repro.RandomDelay(p.D, rnd), Buffer: 1 << 14})
	defer mem.Close()
	repro.InstrumentTransport(reg, mem)

	// The controller is built first (it is both sides' admission hook)
	// and bound to the server's occupancy count once the server exists.
	ctrl, err := repro.NewController(repro.ControlConfig{
		Registry: reg, Clock: clock, Params: p,
		Seed:           7,
		TargetSessions: slots,
	})
	if err != nil {
		return result{}, err
	}
	defer ctrl.Stop()
	cfg := repro.ServeConfig{
		Solution:    solution,
		Params:      p,
		Transport:   mem,
		Clock:       clock,
		MaxSessions: slots,
		IdleTicks:   -1, // slots are reclaimed per transfer
		Obs:         reg,
		Admission:   ctrl,
	}
	srv, err := repro.Serve(cfg)
	if err != nil {
		return result{}, err
	}
	defer srv.Close()
	cfg.MaxSessions = 3 * slots
	dlr, err := repro.Dial(cfg)
	if err != nil {
		return result{}, err
	}
	defer dlr.Close()
	ctrl.Bind(repro.ControlActuators{Active: func() int64 { return int64(srv.ActiveCount()) }})

	// The flood: one worker per dialer slot, taking the sessions in turn.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	inrnd := rand.New(rand.NewSource(11))
	inputs := make([][]repro.Bit, sessions)
	for i := range inputs {
		inputs[i] = repro.RandomBits(8*s.BlockBits, inrnd.Uint64)
	}
	var completed, violations atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3*slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sessions {
					return
				}
				x := inputs[i]
				conn, err := dlr.Start(ctx, x)
				if err != nil {
					return
				}
				rx, err := srv.WaitWrites(ctx, conn.ID(), len(x))
				if final, ok := srv.Evict(conn.ID()); ok {
					rx = final
				}
				conn.Close()
				if !isPrefix(rx.Y, x) {
					violations.Add(1)
				} else if err == nil && len(rx.Y) == len(x) {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	res := result{
		sessions:   sessions,
		completed:  int(completed.Load()),
		violations: int(violations.Load()),
		gate:       ctrl.State(),
	}
	fmt.Printf("flood: %d sessions, %d dialer slots over %d receiver slots\n", sessions, 3*slots, slots)
	fmt.Printf("goodput: %d completed, %d prefix violations\n", res.completed, res.violations)
	fmt.Printf("gate: gated=%d gate_ticks=%d\n", res.gate.Gated, res.gate.GateTicks)
	return res, nil
}

// isPrefix reports whether the output tape y is a prefix of the input x.
func isPrefix(y, x []repro.Bit) bool {
	if len(y) > len(x) {
		return false
	}
	for i := range y {
		if y[i] != x[i] {
			return false
		}
	}
	return true
}
