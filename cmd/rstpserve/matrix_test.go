package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// matrixRow is one cell of the served-stack benchmark grid: a protocol
// family, a transport, a fault plan and a session count, run as one
// rstpserve invocation.
type matrixRow struct {
	name      string // e.g. "beta4/mem/loss/s64"
	chaos     string // "none", "loss", "burst" or "crash"
	transport string // "mem" or "udp"
	sessions  int
	stack     string // the -stack value, which the summary's proto must echo
	args      []string
}

// matrixFamilies are the grid's protocol families at k=4 (binary alpha
// has no k). n is the input length in blocks: at least 24 bits, and
// enough that a session running on schedule, at the family's upper
// effort bound, still sends for 600 ticks. The burst and crash windows
// open 300 ticks after the transport's first frame, so every session
// meets its fault plan even on a fast host; 24-bit beta4 sessions at
// 64-way concurrency finish by then and never see the burst.
var matrixFamilies = []struct {
	name, stack string
	n           int
}{
	{"alpha", "alpha", 34},             // 1-bit blocks, 18 ticks/msg
	{"beta4", "beta(k=4)", 17},         // 6-bit blocks, 6 ticks/msg
	{"gamma4", "gamma(k=4)", 16},       // 5-bit blocks, 7.8 ticks/msg
	{"rateless4", "rateless(k=4)", 34}, // 6-bit blocks, 3 ticks/msg
}

// matrixPlans renders each fault plan as rstpserve's fault flags, in
// ticks from the transport's first frame: sustained 15% loss for the
// whole run, a dense loss and duplication burst, and a total blackout
// (the channel view of a crashed hop that later restarts).
var matrixPlans = []struct {
	name  string
	flags []string
}{
	{"none", nil},
	{"loss", []string{"-loss", "0.15", "-fwindow", "0:1099511627776"}},
	{"burst", []string{"-loss", "0.5", "-dup", "0.2", "-fwindow", "300:900"}},
	{"crash", []string{"-blackout", "300:700"}},
}

// matrixRows enumerates the grid in family, transport, plan, session
// order. The quick tier is every plan over mem at 1 and 64 sessions plus
// a fault-free udp row per family (36 rows). The full tier crosses both
// transports with every plan at 1, 64 and 1000 sessions, and adds a
// 10k-session fault-free mem probe per family (100 rows).
func matrixRows(full bool) []matrixRow {
	var rows []matrixRow
	for _, fam := range matrixFamilies {
		add := func(transport string, plan, sessions int) {
			chaos := matrixPlans[plan].name
			// Faults and real sockets lose frames, which only the
			// hardened layer recovers; rateless tolerates loss natively
			// and runs bare everywhere, which is the point of its rows.
			stack := fam.stack
			if !strings.HasPrefix(stack, "rateless(") && (chaos != "none" || transport == "udp") {
				stack = "hardened(" + stack + ")"
			}
			args := []string{
				"-stack", stack, "-n", fmt.Sprint(fam.n),
				"-transport", transport, "-sessions", fmt.Sprint(sessions),
				"-tick", "50us", "-timeout", fmt.Sprint(time.Minute * time.Duration(1+(sessions-1)/512)),
			}
			rows = append(rows, matrixRow{
				name:  fmt.Sprintf("%s/%s/%s/s%d", fam.name, transport, chaos, sessions),
				chaos: chaos, transport: transport, sessions: sessions, stack: stack,
				args: append(args, matrixPlans[plan].flags...),
			})
		}
		if !full {
			for plan := range matrixPlans {
				add("mem", plan, 1)
				add("mem", plan, 64)
			}
			add("udp", 0, 64) // plan 0 is fault-free
			continue
		}
		for _, transport := range []string{"mem", "udp"} {
			for plan := range matrixPlans {
				for _, sessions := range []int{1, 64, 1000} {
					add(transport, plan, sessions)
				}
			}
		}
		add("mem", 0, 10000) // plan 0 is fault-free
	}
	return rows
}

// matrixParent holds each fault-free mem row's allocs per write and mean
// effort in ticks per message: the median of three
// `go test -count=1 -run TestServeMatrix -v` runs on a 2-vCPU x86-64
// Linux host (Intel Xeon, Go 1.24, GOMAXPROCS 2). Efforts were
// re-measured once the clock's pacer woke each step round at its tick
// rather than up to 1 ms late (the old values read 1.3-5.2x these), so
// the 2.5x ceiling now guards the pacer's timing. The allocs were
// re-measured once the core step stopped allocating (a shared multiset
// codec table per (k, n), uint64 rank/unrank, pre-boxed local actions),
// and the rateless rows' once the coded path did too (memoized sends and
// acks, recycled decoders, string frame payloads) and again once
// selective acks cut its repair symbols and a record arena its
// payloads. The udp rows have no ceiling: their effort is the kernel
// socket path's scheduling, and under a parallel
// `go test ./...` on that host it read 3.2x the quiet value with no code
// change.
var matrixParent = map[string]struct{ allocs, effort float64 }{
	"alpha/mem/none/s1":      {allocs: 5.0, effort: 17.59},
	"alpha/mem/none/s64":     {allocs: 4.4, effort: 18.14},
	"beta4/mem/none/s1":      {allocs: 2.9, effort: 5.80},
	"beta4/mem/none/s64":     {allocs: 2.8, effort: 6.41},
	"gamma4/mem/none/s1":     {allocs: 4.4, effort: 5.59},
	"gamma4/mem/none/s64":    {allocs: 4.3, effort: 5.96},
	"rateless4/mem/none/s1":  {allocs: 2.9, effort: 3.14},
	"rateless4/mem/none/s64": {allocs: 2.8, effort: 4.05},
}

// TestServeMatrix is the served-stack benchmark grid: every row runs
// rstpserve in-process, one after another so each row's allocation
// count covers only its own transfers. Every row must complete every
// session with no prefix violation, every fault plan must inject, and
// the fault-free mem rows must stay within 1.25x matrixParent's allocs
// per write and 2.5x its mean effort (a 60% goodput drop, in ticks).
// Select rows by name: -run 'TestServeMatrix/beta4/mem'. RSTP_FULL_SOAK=1
// runs the full tier.
func TestServeMatrix(t *testing.T) {
	full := os.Getenv("RSTP_FULL_SOAK") == "1"
	rows := matrixRows(full)
	if want := map[bool]int{false: 36, true: 100}[full]; len(rows) != want {
		t.Fatalf("grid has %d rows, want %d", len(rows), want)
	}
	warmProcess(t)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sum := runRow(t, row)
			// Both ceilings move with host load (rateless sends repair
			// symbols until a late ack arrives), so a miss is re-measured
			// up to twice: a regression misses on every run, a loaded
			// host's hiccup does not. Under -race they mean nothing.
			parent, gated := matrixParent[row.name]
			for attempt := 1; gated && !raceEnabled; attempt++ {
				miss := ceilingMiss(sum, parent.allocs, parent.effort)
				if miss == "" {
					break
				}
				if attempt == 3 {
					t.Error(miss)
					break
				}
				t.Logf("%s; re-measuring", miss)
				sum = runRow(t, row)
			}
			t.Logf("%-22s goodput=%8.0f msg/s effort=%6.2f ticks/msg (bounds %.2f..%.2f) allocs/write=%6.1f dropped=%d duplicated=%d",
				row.name, sum.GoodputMsgSec, sum.EffortMean, sum.EffortLowerBound, sum.EffortBound,
				sum.AllocsPerWrite, sum.ChaosDropped, sum.ChaosDuplicated)
		})
	}

	// Two runs of one seeded chaos row must agree on every key the seed
	// determines. The row is chaos over udp, so every PR also drives
	// UDP's fault plan over real sockets.
	t.Run("determinism/beta4/udp/loss/s64", func(t *testing.T) {
		var row matrixRow
		for _, r := range matrixRows(true) {
			if r.name == "beta4/udp/loss/s64" {
				row = r
			}
		}
		a, b := canonical(runRow(t, row)), canonical(runRow(t, row))
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Errorf("seed-determined keys differ across runs:\n  %s\n  %s", ja, jb)
		}
	})
}

// warmProcess does the process's one-time set-up before the first
// measured row, so that no row's allocation count pays for it: one
// single-session run per family builds the shared multiset codec tables
// and the boxed-action memos and starts the serving goroutines once, and
// a forced collection starts the garbage collector's background workers.
func warmProcess(t *testing.T) {
	t.Helper()
	for _, fam := range matrixFamilies {
		if err := run([]string{"-stack", fam.stack, "-n", "1", "-sessions", "1", "-tick", "50us"}, io.Discard); err != nil {
			t.Fatalf("warm-up run of %s: %v", fam.stack, err)
		}
	}
	runtime.GC()
}

// runRow runs one grid row and checks what every row must show: the
// provenance stamp, every session complete and prefix-safe, the effort
// bounds, the stack the row asked for, and a fault plan that fired.
func runRow(t *testing.T, row matrixRow) summary {
	t.Helper()
	var out strings.Builder
	err := run(row.args, &out)
	sum := summaryFrom(t, out.String())
	if err != nil {
		t.Errorf("run %v: %v", row.args, err)
	}
	if sum.Meta.Schema != "rstp-bench-serve/v1" || sum.Meta.GoVersion == "" || sum.Meta.GOMAXPROCS == 0 {
		t.Errorf("summary meta not stamped: %+v", sum.Meta)
	}
	if sum.Violations != 0 {
		t.Errorf("%d prefix violations", sum.Violations)
	}
	if sum.Sessions != row.sessions || sum.Completed != row.sessions {
		t.Errorf("completed %d of %d sessions (errors %d)", sum.Completed, row.sessions, sum.Errors)
	}
	if sum.BitsPerSession < 24 || sum.Writes != row.sessions*sum.BitsPerSession {
		t.Errorf("writes = %d of %d-bit sessions, want %d", sum.Writes, sum.BitsPerSession, row.sessions*sum.BitsPerSession)
	}
	if sum.EffortLowerBound <= 0 || sum.EffortBound <= sum.EffortLowerBound {
		t.Errorf("effort bounds missing: lower %v upper %v", sum.EffortLowerBound, sum.EffortBound)
	}
	if sum.Proto != row.stack {
		t.Errorf("summary proto %q, want the -stack value %q", sum.Proto, row.stack)
	}
	if row.transport == "udp" && sum.UDPMalformed != 0 {
		t.Errorf("%d malformed datagrams", sum.UDPMalformed)
	}
	if row.chaos == "none" {
		return sum
	}
	// A plan that never fires would pass without testing anything.
	if sum.Faults == "" || sum.ChaosDropped == 0 {
		t.Errorf("fault plan %q injected no drops: %+v", sum.Faults, sum)
	}
	if row.chaos == "burst" && sum.ChaosDuplicated == 0 {
		t.Errorf("burst plan injected no duplicates: %+v", sum)
	}
	if row.transport == "udp" && (!strings.HasPrefix(sum.Faults, "faults(") || !strings.HasPrefix(sum.Transport, "udp(") || !strings.HasSuffix(sum.Transport, ")/"+sum.Faults)) {
		t.Errorf("faults key should name the plan that udp's name ends in: faults %q, transport %q", sum.Faults, sum.Transport)
	}
	return sum
}

// ceilingMiss names the ceiling a fault-free mem row broke, or returns
// "": allocs per write within 1.25x the parent's, effort within 2.5x.
func ceilingMiss(sum summary, allocs, effort float64) string {
	if sum.AllocsPerWrite > 1.25*allocs {
		return fmt.Sprintf("allocs/write %.1f > 1.25 x parent %.1f", sum.AllocsPerWrite, allocs)
	}
	if sum.EffortMean > 2.5*effort {
		return fmt.Sprintf("effort %.2f ticks/msg > 2.5 x parent %.2f", sum.EffortMean, effort)
	}
	return ""
}

// canonical keeps the summary keys a seed determines: the workload, the
// stack and its bounds, the fault plan and the outcome counts. Timing,
// traffic, injection counts and socket addresses are dropped.
func canonical(s summary) summary {
	return summary{
		Schema: s.Schema, Proto: s.Proto,
		Sessions: s.Sessions, Completed: s.Completed, Violations: s.Violations,
		Incomplete: s.Incomplete, BitsPerSession: s.BitsPerSession,
		TickMicros: s.TickMicros, Writes: s.Writes, Faults: s.Faults,
		EffortBound: s.EffortBound, EffortLowerBound: s.EffortLowerBound,
	}
}
