package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestInstrumentWalksWrappedStack pins the walker: one Instrument call on
// the outermost wrapper registers metrics for every layer underneath
// (chaos → mem), and the mem latency histogram starts observing real
// deliveries.
func TestInstrumentWalksWrappedStack(t *testing.T) {
	clock := testClock()
	mem := NewMem(clock, MemOptions{D: 2, Buffer: 4096})
	chaos := NewChaos(mem, clock, chaosPlan(3, faults.Fault{From: 0, To: 1 << 50, Drop: 0.2}))
	defer chaos.Close()

	reg := obs.NewRegistry()
	Instrument(reg, chaos)

	const n = 50
	for i := 0; i < n; i++ {
		if err := chaos.Send(testFrame(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	// Drain what survived the drop clause so latencies get observed.
	_, dropped, _, _, _ := chaos.Stats()
	collect(t, chaos.Deliveries(wire.TtoR), n-dropped, 5*time.Second)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"rstp_chaos_affected_total 50",
		"rstp_mem_sends_total",
		"rstp_transport_delivery_ticks_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["rstp_mem_sends_total"]; got != int64(n-dropped) {
		t.Errorf("mem sends = %d, want %d (chaos dropped %d of %d)", got, n-dropped, dropped, n)
	}
	h := snap.Histograms["rstp_transport_delivery_ticks"]
	if h.Count == 0 {
		t.Errorf("delivery latency histogram observed nothing: %+v", h)
	}
}

// TestInstrumentUDP covers the UDP leg of the walker.
func TestInstrumentUDP(t *testing.T) {
	u, err := NewUDPLoopback(16)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	defer u.Close()
	reg := obs.NewRegistry()
	Instrument(reg, u)
	snap := reg.Snapshot()
	for _, name := range []string{"rstp_udp_dropped_total", "rstp_udp_malformed_total"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("missing %s in %+v", name, snap.Counters)
		}
	}
}

// TestOpenInjectsOnEitherTransport pins Open's fault placement: the same
// seed and clauses over mem (plan inside Mem's delay policy) and over udp
// (plan in the Chaos middleware) both report their drops through
// Instrument, and over mem the excess delay shows in the delivery
// histogram, the empirical Δ(C).
func TestOpenInjectsOnEitherTransport(t *testing.T) {
	const d = 4
	clauses := []faults.Fault{{From: 0, To: 1 << 50, Drop: 0.3, ExtraDelay: 3 * d}}
	for _, tc := range []struct {
		kind, descPrefix, namePrefix string
	}{
		{"mem", "faults(", "mem(d=4)/faults("},
		{"udp", "chaos:faults(", "chaos(faults("},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			tr, desc, err := Open(tc.kind, testClock(), d, 9, clauses)
			if err != nil {
				t.Skipf("%s unavailable: %v", tc.kind, err)
			}
			defer tr.Close()
			if !strings.HasPrefix(desc, tc.descPrefix) || !strings.HasPrefix(tr.Name(), tc.namePrefix) {
				t.Errorf("desc %q, name %q; want prefixes %q, %q", desc, tr.Name(), tc.descPrefix, tc.namePrefix)
			}
			reg := obs.NewRegistry()
			Instrument(reg, tr)

			const n = 100
			for i := 0; i < n; i++ {
				if err := tr.Send(testFrame(int64(i + 1))); err != nil {
					t.Fatal(err)
				}
			}
			snap := reg.Snapshot()
			if got := snap.Counters["rstp_chaos_affected_total"]; got != n {
				t.Errorf("affected = %d, want %d", got, n)
			}
			dropped := snap.Counters["rstp_chaos_dropped_total"]
			if dropped == 0 {
				t.Fatalf("no drops at 30%% over %d sends: %+v", n, snap.Counters)
			}
			collect(t, tr.Deliveries(wire.TtoR), n-int(dropped), 5*time.Second)
			if tc.kind != "mem" {
				return
			}
			h := reg.Snapshot().Histograms["rstp_transport_delivery_ticks"]
			if h.Count != n-dropped {
				t.Fatalf("histogram saw %d deliveries, want %d", h.Count, n-dropped)
			}
			for _, b := range h.Buckets {
				if !b.Inf && b.LE <= d && b.Count != 0 {
					t.Errorf("%d deliveries within d=%d despite %d ticks of excess delay: %+v", b.Count, d, 3*d, h.Buckets)
				}
			}
		})
	}
	if _, _, err := Open("carrier-pigeon", testClock(), d, 9, nil); err == nil {
		t.Error("unknown transport kind accepted")
	}
}
