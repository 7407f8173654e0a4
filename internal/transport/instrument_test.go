package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestInstrumentMemFaultPlan pins what one Instrument call on a Mem
// whose delay policy is a fault plan registers: Mem's own counters, the
// plan's injection counters and the delivery-latency histogram, which
// observes every frame the plan let through.
func TestInstrumentMemFaultPlan(t *testing.T) {
	plan := faults.NewPlan(3, chanmodel.MaxDelay{D: 2}, faults.Fault{From: 0, To: 1 << 50, Drop: 0.2})
	mem := NewMem(testClock(), MemOptions{D: 2, Delay: plan, Buffer: 4096})
	defer mem.Close()

	reg := obs.NewRegistry()
	Instrument(reg, mem)

	const n = 50
	for i := 0; i < n; i++ {
		if err := mem.Send(testFrame(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	// Drain what survived the drop clause so latencies get observed.
	_, dropped, _, _, _ := mem.line.planStats()
	collect(t, mem.Deliveries(wire.TtoR), n-dropped, 5*time.Second)

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
	// Mem accepts every send; the plan inside it drops.
	if got := snap.Counters["rstp_mem_sends_total"]; got != n {
		t.Errorf("mem sends = %d, want %d", got, n)
	}
	if got := snap.Counters["rstp_mem_delivered_total"]; got != int64(n-dropped) {
		t.Errorf("mem delivered = %d, want %d (the plan dropped %d of %d)", got, n-dropped, dropped, n)
	}
	if h := snap.Histograms["rstp_transport_delivery_ticks"]; h.Count != int64(n-dropped) {
		t.Errorf("delivery latency histogram observed %d of %d deliveries: %+v", h.Count, n-dropped, h)
	}
	if _, ok := snap.Counters["rstp_chaos_send_errors_total"]; ok {
		t.Error("Mem registered the send-error counter of a UDP with a plan")
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
	for _, name := range []string{"rstp_chaos_affected_total", "rstp_chaos_send_errors_total"} {
		if _, ok := snap.Counters[name]; ok {
			t.Errorf("a UDP without a fault plan registered %s", name)
		}
	}
}

// TestOpenInjectsOnEitherTransport pins Open's fault placement: the same
// seed and clauses over mem (plan inside Mem's delay policy) and over udp
// (plan in UDP's own delay line) both report their drops through
// Instrument, each transport names itself with the plan appended, and
// over mem the excess delay shows in the delivery histogram, the
// empirical Δ(C).
func TestOpenInjectsOnEitherTransport(t *testing.T) {
	const d = 4
	clauses := []faults.Fault{{From: 0, To: 1 << 50, Drop: 0.3, ExtraDelay: 3 * d}}
	for _, kind := range []string{"mem", "udp"} {
		t.Run(kind, func(t *testing.T) {
			tr, desc, err := Open(kind, testClock(), d, 9, clauses)
			if err != nil {
				t.Skipf("%s unavailable: %v", kind, err)
			}
			defer tr.Close()
			base := "mem(d=4)"
			if u, ok := tr.(*UDP); ok {
				base = fmt.Sprintf("udp(t=%v r=%v)", u.tAddr, u.rAddr)
			}
			if !strings.HasPrefix(desc, "faults(") || tr.Name() != base+"/"+desc {
				t.Errorf("desc %q, name %q; want desc prefix %q, name %q", desc, tr.Name(), "faults(", base+"/"+desc)
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
			if kind != "mem" {
				if errs, ok := reg.Snapshot().Counters["rstp_chaos_send_errors_total"]; !ok || errs != 0 {
					t.Errorf("rstp_chaos_send_errors_total = %d (registered %v), want 0 registered", errs, ok)
				}
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
