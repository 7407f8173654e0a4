package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeFloat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rstp_test_total", "a counter")
	g := r.Gauge("rstp_test_active", "a gauge")
	f := r.Float("rstp_test_ratio", "a float gauge")

	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2)
	f.Set(1.5)

	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	if got := f.Value(); got != 1.5 {
		t.Errorf("float = %v, want 1.5", got)
	}
	// Same name returns the same metric.
	if r.Counter("rstp_test_total", "again") != c {
		t.Errorf("re-registration must return the shared counter")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("rstp_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering one name as two kinds must panic")
		}
	}()
	r.Gauge("rstp_clash", "")
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rstp_lat_ticks", "latency", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 115 {
		t.Fatalf("sum = %d, want 115", h.Sum())
	}
	b := h.snapshotBuckets()
	// cumulative: le=1 -> {0,1}, le=2 -> +{2}, le=4 -> +{3,4}, +Inf -> +{5,100}
	wantCum := []int64{2, 3, 5, 7}
	for i, want := range wantCum {
		if b[i].Count != want {
			t.Errorf("bucket[%d] = %d, want %d", i, b[i].Count, want)
		}
	}
	if !b[len(b)-1].Inf {
		t.Errorf("last bucket must be +Inf")
	}
}

func TestBucketHelpers(t *testing.T) {
	tb := TickBuckets(4)
	if len(tb) != 4 || tb[0] != 1 || tb[3] != 8 {
		t.Errorf("TickBuckets(4) = %v", tb)
	}
	mb := MarginBuckets(3)
	want := []int64{-4, -2, -1, 0, 1, 2, 4}
	if len(mb) != len(want) {
		t.Fatalf("MarginBuckets(3) = %v", mb)
	}
	for i := range want {
		if mb[i] != want[i] {
			t.Fatalf("MarginBuckets(3) = %v, want %v", mb, want)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rstp_q_ticks", "", []int64{1, 2, 4, 8})
	// 100 samples: 50 at 1, 40 at 3 (le=4), 9 at 8, 1 at 100 (+Inf).
	for i := 0; i < 50; i++ {
		h.Observe(1)
	}
	for i := 0; i < 40; i++ {
		h.Observe(3)
	}
	for i := 0; i < 9; i++ {
		h.Observe(8)
	}
	h.Observe(100)
	if got := h.Quantile(0.50); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(0.90); got != 4 {
		t.Errorf("p90 = %d, want 4", got)
	}
	if got := h.Quantile(0.99); got != 8 {
		t.Errorf("p99 = %d, want 8", got)
	}
	// The top percentile lands in +Inf: reported as 0, not a made-up bound.
	if got := h.Quantile(1.0); got != 0 {
		t.Errorf("p100 = %d, want 0 (+Inf bucket)", got)
	}
	// Empty histogram.
	e := r.Histogram("rstp_q_empty_ticks", "", TickBuckets(3))
	if got := e.Quantile(0.99); got != 0 {
		t.Errorf("empty p99 = %d, want 0", got)
	}
	// Snapshot view agrees with the live histogram.
	hs := r.Snapshot().Histograms["rstp_q_ticks"]
	if hs.P50 != 1 || hs.P99 != 8 {
		t.Errorf("snapshot P50/P99 = %d/%d, want 1/8", hs.P50, hs.P99)
	}
	if got := BucketQuantile(hs, 0.90); got != 4 {
		t.Errorf("BucketQuantile(snapshot, 0.90) = %d, want 4", got)
	}
}

// TestQuantileGaugesExported checks both exporters carry the
// precomputed _p50/_p99 series, so dashboards and JSON consumers agree.
func TestQuantileGaugesExported(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rstp_qx_ticks", "", []int64{1, 2, 4})
	for i := 0; i < 9; i++ {
		h.Observe(1)
	}
	h.Observe(4)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rstp_qx_ticks_p50 gauge",
		"rstp_qx_ticks_p50 1",
		"# TYPE rstp_qx_ticks_p99 gauge",
		"rstp_qx_ticks_p99 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if hs := back.Histograms["rstp_qx_ticks"]; hs.P50 != 1 || hs.P99 != 4 {
		t.Errorf("JSON snapshot P50/P99 = %d/%d, want 1/4", hs.P50, hs.P99)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("rstp_sends_total", "frames sent").Add(3)
	r.Gauge("rstp_active", "live sessions").Set(2)
	r.Float("rstp_effort", "ticks per message").Set(12.5)
	r.CounterFunc("rstp_fn_total", "scrape-time counter", func() int64 { return 9 })
	r.FloatFunc("rstp_fn_ratio", "scrape-time float", func() float64 { return 0.25 })
	r.Histogram("rstp_lat_ticks", "latency", []int64{1, 4}).Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE rstp_sends_total counter",
		"rstp_sends_total 3",
		"# TYPE rstp_active gauge",
		"rstp_active 2",
		"rstp_effort 12.5",
		"rstp_fn_total 9",
		"rstp_fn_ratio 0.25",
		"# TYPE rstp_lat_ticks histogram",
		`rstp_lat_ticks_bucket{le="1"} 0`,
		`rstp_lat_ticks_bucket{le="4"} 1`,
		`rstp_lat_ticks_bucket{le="+Inf"} 1`,
		"rstp_lat_ticks_sum 2",
		"rstp_lat_ticks_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two writes render identically.
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb2.String() != out {
		t.Errorf("exposition is not deterministic")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rstp_a_total", "").Add(1)
	r.Gauge("rstp_b", "").Set(-4)
	r.Histogram("rstp_h_ticks", "", TickBuckets(3)).Observe(2)
	r.Live("sessions", func() any {
		return []map[string]any{{"id": 1, "effort": 12.0}}
	})

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v\n%s", err, raw)
	}
	if back.Counters["rstp_a_total"] != 1 || back.Gauges["rstp_b"] != -4 {
		t.Errorf("snapshot lost values: %+v", back)
	}
	if back.Histograms["rstp_h_ticks"].Count != 1 {
		t.Errorf("snapshot lost histogram: %+v", back)
	}
	if back.Live == nil {
		t.Errorf("snapshot lost live section: %s", raw)
	}
}

func TestFuncReRegistrationReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("rstp_g", "", func() int64 { return 1 })
	r.GaugeFunc("rstp_g", "", func() int64 { return 2 })
	if got := r.Snapshot().Gauges["rstp_g"]; got != 2 {
		t.Errorf("gauge func = %d, want the replacement's 2", got)
	}
}

func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rstp_c_total", "")
	h := r.Histogram("rstp_h_ticks", "", TickBuckets(8))
	tr := r.Tracer()
	tr.Enable(16, 64)

	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 50))
				tr.Record(int64(i), uint32(w), EvSend, int64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent scrapes must never race the writers
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			r.WritePrometheus(&sb)
			r.Snapshot()
			tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}
