package main

import (
	"testing"
	"time"
)

// short runs each workload for half a second: long enough for every
// layer to carry traffic, short enough for plain `go test`.
func short(seed int64) runConfig {
	return runConfig{seed: seed, warmup: 100 * time.Millisecond, window: 400 * time.Millisecond}
}

// testWorkload scales churn down under the race detector: at its slowdown
// 64 back-to-back clients overload two cores until sessions time out.
func testWorkload(w workload) workload {
	if raceEnabled && w.clients > 8 {
		w.clients = 8
	}
	return w
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkEmitted fails unless got holds exactly the metrics of want, each
// with the unit BENCHMARK.json gives it.
func checkEmitted(t *testing.T, what string, want []specMetric, got map[string]metricValue) {
	t.Helper()
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but not emitted", what, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", what, m.Name, v.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
}

func TestWorkloadsShortRun(t *testing.T) {
	s := testSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
		rep, err := runWorkload(testWorkload(w), short(1), false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.violation != "" {
			t.Errorf("%s: prefix violation: %s", w.name, rep.violation)
		}
		if rep.result.Attempted == 0 || !rep.result.Correct {
			t.Errorf("%s: attempted %d, correct %v", w.name, rep.result.Attempted, rep.result.Correct)
		}
		checkEmitted(t, w.name, s.EndToEnd, rep.result.Metrics)
	}
}

// TestTracedRunTransparent runs the same seeded Mem workload without and
// with the decorators: both passes must complete every session with
// Y = X, and the traced one must emit every per-layer metric.
func TestTracedRunTransparent(t *testing.T) {
	s := testSpec(t)
	w, _ := findWorkload("churn")
	// A longer window than short's, so sessions start inside it even when
	// the race detector slows each one to a few hundred milliseconds.
	cfg := short(2)
	cfg.window = time.Second
	rep, err := runWorkload(testWorkload(w), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.violation != "" || rep.failedAll != 0 {
		for _, m := range rep.lines {
			t.Logf("%s %v %s", m.name, m.value, m.unit)
		}
		t.Fatalf("violation %q, %d failed sessions over both passes", rep.violation, rep.failedAll)
	}
	checkEmitted(t, "traced churn", s.PerLayer, rep.result.Metrics)
	tr := rep.tracer
	if tr.unmapped != 0 || tr.inbox.count() == 0 || len(tr.spans) == 0 {
		t.Errorf("tracer: %d unmapped receivers, %d inbox samples, %d spans", tr.unmapped, tr.inbox.count(), len(tr.spans))
	}
}

func TestInputPoolHash(t *testing.T) {
	for _, w := range workloads {
		_, a := inputPool(w, 7)
		_, b := inputPool(w, 7)
		_, c := inputPool(w, 8)
		if a != b || a == c {
			t.Errorf("%s: hash(seed 7) = %x then %x, hash(seed 8) = %x", w.name, a, b, c)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "m", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "m", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "agree"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "agree"},
		{lower, steady, []float64{60, 140, 100, 70, 130}, "unresolved"},
		{lower, []float64{60, 140, 100, 70, 130}, []float64{20, 21, 19, 20, 20}, "agree"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.m, append([]float64(nil), c.a...), append([]float64(nil), c.b...)); got != c.want {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.want)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || med != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
