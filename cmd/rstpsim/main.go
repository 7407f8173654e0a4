// Command rstpsim runs one RSTP protocol on one input under chosen
// schedules and prints the outcome (optionally the full timed trace).
//
// Usage:
//
//	rstpsim -proto beta -k 4 -c1 2 -c2 3 -d 12 -n 64
//	rstpsim -proto alpha -input 101100 -trace
//	rstpsim -proto gamma -k 8 -sched random -delay random -seed 7
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/chanmodel"
	"repro/internal/rstp"
	"repro/internal/rstpx"
	"repro/internal/sim"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstpsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstpsim", flag.ContinueOnError)
	var (
		proto    = fs.String("proto", "beta", "protocol: alpha, beta, gamma or genbeta (§7 window model)")
		k        = fs.Int("k", 4, "packet alphabet size (beta/gamma/genbeta)")
		c1       = fs.Int64("c1", 2, "minimum inter-step time (ticks)")
		c2       = fs.Int64("c2", 3, "maximum inter-step time (ticks)")
		d        = fs.Int64("d", 12, "channel delay bound (ticks); genbeta: the window's d2")
		d1       = fs.Int64("d1", 0, "genbeta: the delivery window's lower bound d1")
		input    = fs.String("input", "", "explicit 0/1 input (padded to a block multiple)")
		n        = fs.Int("n", 64, "random input length in bits when -input is empty")
		sched    = fs.String("sched", "slow", "step schedule: slow, fast, alternating or random")
		delay    = fs.String("delay", "max", "channel adversary: max, zero, random, reverse or batch")
		seed     = fs.Int64("seed", 1, "random seed")
		trace    = fs.Bool("trace", false, "print the full timed trace")
		stats    = fs.Bool("stats", false, "print run statistics")
		timeline = fs.Bool("timeline", false, "print a space-time diagram (first 60 events)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *proto == "genbeta" {
		return runGenBeta(out, *c1, *c2, *d1, *d, *k, *input, *n, *seed)
	}

	p := rstp.Params{C1: *c1, C2: *c2, D: *d}
	s, err := rstp.New(p, *proto, *k)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	var x []wire.Bit
	if *input != "" {
		x, err = wire.ParseBits(*input)
		if err != nil {
			return err
		}
	} else {
		x = wire.RandomBits(*n, rng.Uint64)
	}
	var pad int
	x, pad = rstp.PadToBlock(x, s.BlockBits)

	var policy sim.StepPolicy
	switch *sched {
	case "slow":
		policy = sim.FixedGap{C: p.C2}
	case "fast":
		policy = sim.FixedGap{C: p.C1}
	case "alternating":
		policy = sim.AlternatingGap{C1: p.C1, C2: p.C2}
	case "random":
		policy = sim.RandomGap{C1: p.C1, C2: p.C2, Int63n: rng.Int63n}
	default:
		return fmt.Errorf("unknown schedule %q", *sched)
	}

	var dp chanmodel.DelayPolicy
	switch *delay {
	case "max":
		dp = chanmodel.MaxDelay{D: p.D}
	case "zero":
		dp = chanmodel.Zero{}
	case "random":
		dp = &chanmodel.UniformRandom{D: p.D, Rand: rng}
	case "reverse":
		burst := p.Delta1()
		if s.Kind == rstp.KindGamma {
			burst = p.Delta2()
		}
		dp = chanmodel.ReverseBurst{D: p.D, Burst: burst, StepGap: p.C1}
	case "batch":
		dp = chanmodel.IntervalBatch{D: p.D}
	default:
		return fmt.Errorf("unknown delay policy %q", *delay)
	}

	runResult, err := s.Run(x, rstp.RunOptions{TPolicy: policy, RPolicy: policy, Delay: dp})
	if err != nil {
		return err
	}

	if *trace {
		for _, e := range runResult.Trace {
			fmt.Fprintln(out, e)
		}
		fmt.Fprintln(out)
	}
	if *stats {
		fmt.Fprintln(out, sim.Collect(runResult, rstp.TransmitterName, rstp.ReceiverName))
		fmt.Fprintln(out)
	}
	if *timeline {
		if err := sim.Timeline(out, runResult, rstp.TransmitterName, rstp.ReceiverName, 60); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "protocol    %s  (%s)\n", s, p)
	fmt.Fprintf(out, "schedule    %s   channel %s\n", policy.Name(), dp.Name())
	fmt.Fprintf(out, "input       %d bits (%d padding)\n", len(x), pad)
	fmt.Fprintf(out, "events      %d  (sends %d, writes %d)\n", len(runResult.Trace), runResult.SendCount, runResult.WriteCount)
	if last, ok := runResult.LastSendTime(); ok {
		fmt.Fprintf(out, "last send   t=%d  -> effort %.3f ticks/message\n", last, float64(last)/float64(len(x)))
	}
	if last, ok := runResult.LastWriteTime(); ok {
		fmt.Fprintf(out, "last write  t=%d\n", last)
	}
	match := wire.BitsToString(runResult.Writes()) == wire.BitsToString(x)
	fmt.Fprintf(out, "Y == X      %v\n", match)
	if v := s.Verify(runResult, x); len(v) == 0 {
		fmt.Fprintln(out, "good(A)     yes")
	} else {
		fmt.Fprintf(out, "good(A)     NO — %d violations, first: %v\n", len(v), v[0])
	}
	if !match {
		return fmt.Errorf("output mismatch")
	}
	return nil
}

// runGenBeta drives the Section 7 generalised burst protocol on a
// delivery window [d1, d2] under its worst-case conditions.
func runGenBeta(out io.Writer, c1, c2, d1, d2 int64, k int, input string, n int, seed int64) error {
	p := rstpx.GenParams{TC1: c1, TC2: c2, RC1: c1, RC2: c2, D1: d1, D2: d2}
	s, err := rstpx.NewGenBeta(p, k)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var x []wire.Bit
	if input != "" {
		if x, err = wire.ParseBits(input); err != nil {
			return err
		}
	} else {
		x = wire.RandomBits(n, rng.Uint64)
	}
	var pad int
	x, pad = rstp.PadToBlock(x, s.BlockBits)
	run, err := s.Run(x, rstpx.GenRunOptions{
		Delay: &chanmodel.UniformWindow{D1: d1, D2: d2, Rand: rng},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "protocol    %s  (%s)\n", s, p)
	fmt.Fprintf(out, "input       %d bits (%d padding)\n", len(x), pad)
	if last, ok := run.LastSendTime(); ok {
		fmt.Fprintf(out, "last send   t=%d  -> effort %.3f ticks/message (gen upper %.3f, gen lower %.3f)\n",
			last, float64(last)/float64(len(x)),
			rstpx.GenBetaUpperBound(p, k, s.Burst), rstpx.GenPassiveLowerBound(p, k))
	}
	match := wire.BitsToString(run.Writes()) == wire.BitsToString(x)
	fmt.Fprintf(out, "Y == X      %v\n", match)
	if v := s.Verify(run, x); len(v) == 0 {
		fmt.Fprintln(out, "good(A)     yes (window form)")
	} else {
		fmt.Fprintf(out, "good(A)     NO — %d violations, first: %v\n", len(v), v[0])
	}
	if !match {
		return fmt.Errorf("output mismatch")
	}
	return nil
}
