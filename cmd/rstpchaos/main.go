// Command rstpchaos chaos-tests the RSTP protocols: it runs a solution —
// bare, hardened, and/or stabilized — under seeded, time-windowed channel
// and process fault plans and reports the channel watchdog's degradation
// verdict, the safety/liveness outcome, the per-run stabilization report,
// and the recovery time after the faults heal.
//
// Usage:
//
//	rstpchaos -sweep                       # the E17 channel fault-sweep table
//	rstpchaos -crashsweep                  # the E18 process crash-sweep table
//	rstpchaos -loss 0.3                    # one chaos run, hardened(beta(k=4))
//	rstpchaos -stack 'gamma(k=4)' -blackout 100:400
//	rstpchaos -stack 'hardened(alpha)' -corrupt 0.5 -fwindow 0:600 -seed 7
//	rstpchaos -stack 'stabilized(hardened(beta(k=4)))' -procfaults t:crash:60:240,r:corrupt:150
//	rstpchaos -stack 'stabilized(hardened(beta(k=4)))' -loss 0.3 -procfaults r:crashcorrupt:80:240
//
// Fault flags compose into a single plan: -loss/-dup/-corrupt apply over
// the -fwindow send-time window, -blackout and -excess carve their own
// windows. -procfaults adds process faults (crash, crash+checkpoint
// corruption, live corruption, step-rate stretch); a stabilized(...)
// -stack wraps the protocol in the self-stabilizing recovery layer that
// absorbs them. -stack names the stack as rstpserve does: alpha,
// beta(k=N) or gamma(k=N), optionally inside hardened(...) and then
// stabilized(...). All randomness is seeded, so a given flag set
// reproduces the same run byte for byte. The tool exits nonzero whenever
// the output tape violates the prefix invariant.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/chanmodel"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/rstp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/timed"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstpchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstpchaos", flag.ContinueOnError)
	var (
		sweep      = fs.Bool("sweep", false, "print the E17 fault-sweep table and exit")
		crashSweep = fs.Bool("crashsweep", false, "print the E18 crash-sweep table and exit")
		quick      = fs.Bool("quick", false, "smaller sweep workload")
		stackName  = fs.String("stack", "hardened(beta(k=4))", "protocol stack: alpha, beta(k=N) or gamma(k=N), optionally inside hardened(...) and then stabilized(...)")
		c1         = fs.Int64("c1", 2, "minimum step gap c1")
		c2         = fs.Int64("c2", 3, "maximum step gap c2")
		d          = fs.Int64("d", 12, "channel delay bound d")
		n          = fs.Int("n", 12, "input length in blocks")
		seed       = fs.Int64("seed", 1, "seed for the fault plan and input")
		loss       = fs.Float64("loss", 0, "drop probability inside -fwindow")
		dup        = fs.Float64("dup", 0, "duplication probability inside -fwindow")
		corrupt    = fs.Float64("corrupt", 0, "corruption probability inside -fwindow")
		fwindow    = fs.String("fwindow", "0:600", "send-time window from:to for -loss/-dup/-corrupt")
		blackout   = fs.String("blackout", "", "blackout window from:to (empty = none)")
		excess     = fs.Int64("excess", 0, "extra delay beyond d applied inside -fwindow")
		procFaults = fs.String("procfaults", "", "process fault clauses proc:kind:from[:to], comma-separated (kinds: crash, crashcorrupt, corrupt, rateN)")
		maxTicks   = fs.Int64("maxticks", 1_000_000, "simulation tick cap")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *sweep {
		table, err := experiments.E17FaultSweep(experiments.Config{Seed: *seed, Quick: *quick})
		if err != nil {
			return err
		}
		return table.Render(out)
	}
	if *crashSweep {
		table, err := experiments.E18CrashSweep(experiments.Config{Seed: *seed, Quick: *quick})
		if err != nil {
			return err
		}
		return table.Render(out)
	}

	p := rstp.Params{C1: *c1, C2: *c2, D: *d}
	spec, err := stack.Parse(*stackName)
	if err != nil {
		return fmt.Errorf("-stack: %w", err)
	}
	st, err := stack.Build(p, spec)
	if err != nil {
		return err
	}
	sol, ok := st.Builder.(interface {
		Run(x []wire.Bit, opt rstp.RunOptions) (*sim.Run, error)
	})
	if !ok {
		return fmt.Errorf("%s does not run in the simulator (alpha, beta, gamma)", st.Builder)
	}
	clauses, err := faults.Clauses(*loss, *dup, *corrupt, *excess, *fwindow, *blackout)
	if err != nil {
		return err
	}
	plan := faults.NewPlan(*seed, chanmodel.MaxDelay{D: p.D}, clauses...)

	var procPlan *faults.ProcPlan
	if *procFaults != "" {
		pcs, err := parseProcFaults(*procFaults)
		if err != nil {
			return fmt.Errorf("-procfaults: %w", err)
		}
		procPlan = faults.NewProcPlan(*seed, pcs...)
	}

	x := patternBits(*n * st.BlockBits)
	opt := rstp.RunOptions{Delay: plan, MaxTicks: *maxTicks}
	if procPlan != nil {
		opt.ProcFaults = procPlan
	}

	r, runErr := sol.Run(x, opt)
	if r == nil {
		return runErr
	}

	fmt.Fprintf(out, "protocol:  %s\n", st.Builder)
	fmt.Fprintf(out, "params:    c1=%d c2=%d d=%d, |X|=%d bits\n", p.C1, p.C2, p.D, len(x))
	fmt.Fprintf(out, "plan:      %s\n", plan.Name())
	affected, dropped, duplicated, corrupted, delayed := plan.Stats()
	fmt.Fprintf(out, "injected:  %d affected, %d dropped, %d duplicated, %d corrupted, %d delayed\n",
		affected, dropped, duplicated, corrupted, delayed)
	if r.Degradation != nil {
		fmt.Fprintf(out, "watchdog:  %s\n", r.Degradation)
	}
	if r.Stabilization != nil {
		fmt.Fprintf(out, "processes: %s\n", r.Stabilization)
	}

	safety := timed.PrefixInvariant(r.Trace, x, false)
	complete := runErr == nil && len(timed.PrefixInvariant(r.Trace, x, true)) == 0
	fmt.Fprintf(out, "safety:    %d prefix violations\n", len(safety))
	fmt.Fprintf(out, "delivered: %d/%d bits (Y=X: %v)\n", r.WriteCount, len(x), complete)
	if last, ok := r.LastWriteTime(); ok {
		fmt.Fprintf(out, "last write: t=%d\n", last)
		if complete && plan.End() > 0 && last > plan.End() {
			fmt.Fprintf(out, "recovery:  %d ticks after the heal at t=%d\n", last-plan.End(), plan.End())
		}
	}
	if runErr != nil {
		fmt.Fprintf(out, "run ended early: %v\n", runErr)
	}
	if len(safety) > 0 {
		return fmt.Errorf("output tape corrupted: %v", safety[0])
	}
	return nil
}

// parseProcFaults parses the -procfaults grammar: comma-separated clauses
// of the form proc:kind:from[:to] with proc ∈ {t, r} and kind one of
// crash (restarts at to; omitted to = crash forever), crashcorrupt (crash
// whose checkpoint is corrupted just before the restart), corrupt (live
// state corruption at from), or rateN (step gaps stretched ×N over
// [from,to)).
func parseProcFaults(spec string) ([]faults.ProcFault, error) {
	var out []faults.ProcFault
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(clause), ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("clause %q: want proc:kind:from[:to]", clause)
		}
		var f faults.ProcFault
		switch parts[0] {
		case "t":
			f.Proc = sim.ProcTransmitter
		case "r":
			f.Proc = sim.ProcReceiver
		default:
			return nil, fmt.Errorf("clause %q: process %q (want t or r)", clause, parts[0])
		}
		from, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("clause %q: from: %w", clause, err)
		}
		f.From = from
		if len(parts) > 3 {
			to, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("clause %q: to: %w", clause, err)
			}
			if to <= from {
				return nil, fmt.Errorf("clause %q: empty window", clause)
			}
			f.To = to
		}
		kind := parts[1]
		switch {
		case kind == "crash":
			f.Crash = true
		case kind == "crashcorrupt":
			f.Crash, f.Corrupt = true, true
			if f.To == 0 {
				return nil, fmt.Errorf("clause %q: crashcorrupt needs a restart time (the corruption hits the checkpoint before the restart)", clause)
			}
		case kind == "corrupt":
			f.Corrupt = true
		case strings.HasPrefix(kind, "rate"):
			n, err := strconv.ParseInt(kind[len("rate"):], 10, 64)
			if err != nil || n < 2 {
				return nil, fmt.Errorf("clause %q: rate factor %q (want rateN with N ≥ 2)", clause, kind)
			}
			if f.To == 0 {
				return nil, fmt.Errorf("clause %q: rate window needs from:to", clause)
			}
			f.RateFactor = n
		default:
			return nil, fmt.Errorf("clause %q: kind %q (crash, crashcorrupt, corrupt, rateN)", clause, kind)
		}
		out = append(out, f)
	}
	return out, nil
}

// patternBits builds a fixed non-trivial bit pattern.
func patternBits(n int) []wire.Bit {
	x := make([]wire.Bit, n)
	for i := range x {
		if i%3 == 0 || i%7 == 2 {
			x[i] = wire.One
		}
	}
	return x
}
