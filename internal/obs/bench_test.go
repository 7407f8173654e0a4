// The obs benchmarks live in an external test package: they drive the
// registry through its exported API only, as the serving stack does.
package obs_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// BenchmarkObsHotPath is the CI allocation guard: one iteration is the
// full per-event instrumentation cost of the serving hot path — a
// counter bump, a gauge move, a histogram observation, and a trace
// Record with tracing disabled. It must run at 0 allocs/op; a regression
// here taxes every send of every session.
func BenchmarkObsHotPath(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("rstp_bench_sends_total", "")
	g := r.Gauge("rstp_bench_active", "")
	h := r.Histogram("rstp_bench_lat_ticks", "", obs.TickBuckets(12))
	tr := r.Tracer() // disabled: the default serving configuration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Observe(int64(i & 1023))
		tr.Record(int64(i), uint32(i), obs.EvSend, int64(i))
	}
}

// TestObsHotPathNoAlloc enforces the benchmark's contract in the regular
// test suite, so `go test ./internal/obs` fails fast on an allocating
// regression without anyone reading benchmark output.
func TestObsHotPathNoAlloc(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("rstp_guard_total", "")
	g := r.Gauge("rstp_guard_active", "")
	h := r.Histogram("rstp_guard_lat_ticks", "", obs.TickBuckets(12))
	tr := r.Tracer()
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(i)
		h.Observe(i & 1023)
		tr.Record(i, uint32(i), obs.EvSend, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("disabled-tracing hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestObsBenchGuard runs the hot-path benchmark programmatically, fails
// on any allocation, and — when BENCH_OBS_OUT names a file — writes the
// BENCH_obs.json artifact CI archives alongside BENCH_journal.json.
func TestObsBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard runs in the full suite and the dedicated CI step")
	}
	res := testing.Benchmark(BenchmarkObsHotPath)
	if res.N == 0 {
		t.Skip("benchmarks disabled in this run")
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("BenchmarkObsHotPath allocates %d allocs/op, want 0", allocs)
	}
	out := os.Getenv("BENCH_OBS_OUT")
	if out == "" {
		return
	}
	payload := map[string]any{
		"schema":        "rstp-bench-obs/v1",
		"meta":          obs.NewMeta("rstp-bench-obs/v1", time.Now().UTC().Format(time.RFC3339)),
		"benchmark":     "BenchmarkObsHotPath",
		"iterations":    res.N,
		"ns_per_op":     res.NsPerOp(),
		"allocs_per_op": res.AllocsPerOp(),
		"bytes_per_op":  res.AllocedBytesPerOp(),
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
