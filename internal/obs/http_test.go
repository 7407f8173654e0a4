package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("rstp_sends_total", "sends").Add(11)
	r.Histogram("rstp_margin_ticks", "deadline margin", MarginBuckets(4)).Observe(-2)
	r.Live("sessions", func() any { return []int{1, 2, 3} })
	r.Tracer().Enable(8, 8)
	r.Tracer().Record(3, 42, EvWedge, 0)
	return r
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestHandlerMetricsText(t *testing.T) {
	h := testRegistry().Handler()
	code, body := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "rstp_sends_total 11") {
		t.Errorf("missing counter:\n%s", body)
	}
	if !strings.Contains(body, `rstp_margin_ticks_bucket{le="-2"} 1`) {
		t.Errorf("missing negative margin bucket:\n%s", body)
	}
}

func TestHandlerMetricsJSON(t *testing.T) {
	h := testRegistry().Handler()
	code, body := get(t, h, "/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.Counters["rstp_sends_total"] != 11 {
		t.Errorf("snapshot counters = %+v", snap.Counters)
	}
	if snap.Live == nil {
		t.Errorf("live section missing:\n%s", body)
	}
}

func TestHandlerTrace(t *testing.T) {
	h := testRegistry().Handler()
	code, body := get(t, h, "/trace")
	if code != 200 || !strings.Contains(body, `"wedge"`) {
		t.Fatalf("/trace = %d:\n%s", code, body)
	}
	code, body = get(t, h, "/trace?session=42")
	if code != 200 || !strings.Contains(body, `"wedge"`) {
		t.Fatalf("/trace?session=42 = %d:\n%s", code, body)
	}
	code, _ = get(t, h, "/trace?session=not-a-number")
	if code != http.StatusBadRequest {
		t.Errorf("bad session id should 400, got %d", code)
	}
}

func TestHandlerPprofWired(t *testing.T) {
	h := testRegistry().Handler()
	code, body := get(t, h, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%.200s", code, body)
	}
}

func TestServeOverRealSocket(t *testing.T) {
	srv, err := testRegistry().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "rstp_sends_total 11") {
		t.Errorf("scrape over the socket lost metrics:\n%s", raw)
	}
}
