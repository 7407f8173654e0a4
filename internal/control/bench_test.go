package control

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// BenchmarkControlTick measures one full control-loop iteration — sensor
// snapshots, windowed pressure and the ladder step — against a registry with live margin data. This is the
// controller's entire steady-state overhead: it runs once per Interval
// (default 8·d ticks), so per-tick cost here is the whole price of
// adaptive mode.
func BenchmarkControlTick(b *testing.B) {
	reg := obs.NewRegistry()
	c, err := New(Config{Registry: reg, Clock: transport.NewClock(time.Nanosecond), Params: ctlParams()})
	if err != nil {
		b.Fatal(err)
	}
	// Seed the sensors so every tick windows a realistic distribution.
	for i := int64(-20); i < 40; i++ {
		c.marginHist.Observe(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.marginHist.Observe(int64(i%40) - 8)
		c.tick()
	}
}

// TestControlBenchGuard runs the tick benchmark programmatically and —
// when BENCH_CONTROL_OUT names a file — measures controlled-vs-baseline
// goodput at 1×, 1.5× and 2× of the soak's nominal admission rate,
// writing the BENCH_control.json artifact CI archives alongside
// BENCH_obs.json.
func TestControlBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard runs in the full suite and the dedicated CI step")
	}
	res := testing.Benchmark(BenchmarkControlTick)
	if res.N == 0 {
		t.Skip("benchmarks disabled in this run")
	}
	// The loop fires every Interval (8·d = 96 ticks by default); a tick
	// that cost anywhere near a microsecond would still be invisible next
	// to a single session's work. Guard the order of magnitude.
	if perOp := res.NsPerOp(); perOp > 200_000 {
		t.Fatalf("control tick costs %d ns/op — an order of magnitude over budget", perOp)
	}
	out := os.Getenv("BENCH_CONTROL_OUT")
	if out == "" {
		return
	}

	// Goodput sweep: the 2× overload soak shape at three offered loads.
	// 16 workers ≈ the bottleneck link's capacity (1×).
	type point struct {
		Load               string `json:"load"`
		Workers            int    `json:"workers"`
		BaselineCompleted  int64  `json:"baseline_completed"`
		BaselineIncomplete int64  `json:"baseline_incomplete"`
		AdaptiveCompleted  int64  `json:"adaptive_completed"`
		AdaptiveIncomplete int64  `json:"adaptive_incomplete"`
		AdaptiveRefused    int64  `json:"adaptive_dial_refused"`
	}
	var sweep []point
	for _, lp := range []struct {
		load    string
		workers int
	}{{"1x", 16}, {"1.5x", 24}, {"2x", 32}} {
		dur, per := 800*time.Millisecond, 150*time.Millisecond
		base, _ := runOverloadSoak(t, false, lp.workers, dur, per, 7)
		adpt, _ := runOverloadSoak(t, true, lp.workers, dur, per, 7)
		if base.violations != 0 || adpt.violations != 0 {
			t.Fatalf("%s sweep: prefix violations baseline=%d adaptive=%d",
				lp.load, base.violations, adpt.violations)
		}
		sweep = append(sweep, point{
			Load: lp.load, Workers: lp.workers,
			BaselineCompleted: base.completed, BaselineIncomplete: base.incomplete,
			AdaptiveCompleted: adpt.completed, AdaptiveIncomplete: adpt.incomplete,
			AdaptiveRefused: adpt.dialRefused,
		})
	}

	payload := map[string]any{
		"schema":             "rstp-bench-control/v1",
		"meta":               obs.NewMeta("rstp-bench-control/v1", time.Now().UTC().Format(time.RFC3339)),
		"benchmark":          "BenchmarkControlTick",
		"iterations":         res.N,
		"tick_ns_per_op":     res.NsPerOp(),
		"tick_allocs_per_op": res.AllocsPerOp(),
		"tick_bytes_per_op":  res.AllocedBytesPerOp(),
		"goodput_sweep":      sweep,
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
