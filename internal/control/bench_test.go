package control

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// BenchmarkAdmit measures one admission through an open gate plus its
// Forget: the whole per-session price of the controller when the
// receiver side has room.
func BenchmarkAdmit(b *testing.B) {
	c, err := New(Config{
		Registry: obs.NewRegistry(), Clock: transport.NewClock(time.Nanosecond),
		Params: ctlParams(), TargetSessions: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	c.Bind(Actuators{Active: func() int64 { return 0 }})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Admit(ctx, 1); err != nil {
			b.Fatal(err)
		}
		c.Forget(1)
	}
}

// TestControlBenchGuard runs the admission benchmark programmatically
// and holds it at zero allocations per op. When BENCH_CONTROL_OUT names
// a file it also measures gated-vs-fixed goodput at 1×, 1.5× and 2× of
// the soak's nominal admission rate, writing the BENCH_control.json
// artifact CI archives alongside BENCH_obs.json.
func TestControlBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard runs in the full suite and the dedicated CI step")
	}
	res := testing.Benchmark(BenchmarkAdmit)
	if res.N == 0 {
		t.Skip("benchmarks disabled in this run")
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("open-gate Admit+Forget allocates %d times per op, want 0", allocs)
	}
	out := os.Getenv("BENCH_CONTROL_OUT")
	if out == "" {
		return
	}

	// Goodput sweep: the 2× overload soak shape at three offered loads.
	// 16 workers ≈ the bottleneck link's capacity (1×).
	type point struct {
		Load            string `json:"load"`
		Workers         int    `json:"workers"`
		FixedCompleted  int64  `json:"fixed_completed"`
		FixedIncomplete int64  `json:"fixed_incomplete"`
		GateCompleted   int64  `json:"gate_completed"`
		GateIncomplete  int64  `json:"gate_incomplete"`
		Gated           int64  `json:"gated"`
	}
	var sweep []point
	for _, lp := range []struct {
		load    string
		workers int
	}{{"1x", 16}, {"1.5x", 24}, {"2x", 32}} {
		dur, per := 800*time.Millisecond, 150*time.Millisecond
		fixed, _ := runOverloadSoak(t, false, lp.workers, dur, per, 7)
		gated, st := runOverloadSoak(t, true, lp.workers, dur, per, 7)
		if fixed.violations != 0 || gated.violations != 0 {
			t.Fatalf("%s sweep: prefix violations fixed=%d gate=%d",
				lp.load, fixed.violations, gated.violations)
		}
		sweep = append(sweep, point{
			Load: lp.load, Workers: lp.workers,
			FixedCompleted: fixed.completed, FixedIncomplete: fixed.incomplete,
			GateCompleted: gated.completed, GateIncomplete: gated.incomplete,
			Gated: st.Gated,
		})
	}

	payload := map[string]any{
		"schema":              "rstp-bench-control/v2",
		"meta":                obs.NewMeta("rstp-bench-control/v2", time.Now().UTC().Format(time.RFC3339)),
		"benchmark":           "BenchmarkAdmit",
		"iterations":          res.N,
		"admit_ns_per_op":     res.NsPerOp(),
		"admit_allocs_per_op": res.AllocsPerOp(),
		"admit_bytes_per_op":  res.AllocedBytesPerOp(),
		"goodput_sweep":       sweep,
	}
	raw, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	t.Logf("wrote %s: %s", out, raw)
}
