package session

import (
	"testing"

	"repro/internal/rstp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// applyParams gives β(4) a 32-frame burst, so a run of applies can stay
// inside one burst and leave the burst decode (the multiset codec's
// cost, not the endpoint's) out of the count.
var applyParams = rstp.Params{C1: 1, C2: 2, D: 32}

// applyEndpoint is a receiver-side endpoint over a fresh bare β(4)
// receiver, with tracing and metrics off as the benchmark serves them.
func applyEndpoint(tb testing.TB) *endpoint {
	tb.Helper()
	r, err := rstp.NewBetaReceiver(applyParams, 4)
	if err != nil {
		tb.Fatal(err)
	}
	m := &mux{}
	m.init(Config{Params: applyParams, Clock: transport.NewClock(0), TraceLimit: -1}, "receiver")
	return newEndpoint(m, 1, r)
}

// betaFrame is the n-th delivered t→r frame of a bare β(4) session.
func betaFrame(n int) wire.Frame {
	return wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(2*n + 1), P: wire.DataPacket(wire.Symbol(n % 4))}
}

// TestEndpointApplyAllocs is the endpoint's allocation guard: applying
// a delivered bare-β frame boxes its recv action once and allocates
// nothing else.
func TestEndpointApplyAllocs(t *testing.T) {
	e := applyEndpoint(t)
	n := 0
	// One warm-up run plus runs stays below the burst size.
	allocs := testing.AllocsPerRun(applyParams.Delta1()-2, func() {
		e.apply(betaFrame(n))
		n++
	})
	if e.deliveries != n || e.rejected != 0 {
		t.Fatalf("applied %d frames: %d delivered, %d rejected", n, e.deliveries, e.rejected)
	}
	if allocs > 1 {
		t.Fatalf("endpoint.apply allocates %.1f per frame, want at most 1", allocs)
	}
}

// BenchmarkEndpointApply is one delivered bare-β(4) frame applied by a
// receiver endpoint. Each burst's last frame, its decode and the writes
// it enables run off the timer, outside b.N: they are the codec's and
// the step's cost, not apply's.
func BenchmarkEndpointApply(b *testing.B) {
	e := applyEndpoint(b)
	burst := applyParams.Delta1()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		e.apply(betaFrame(n))
		if n++; n%burst != burst-1 {
			continue
		}
		b.StopTimer()
		e.apply(betaFrame(n))
		n++
		for {
			act, ok := e.auto.NextLocal()
			if _, write := act.(wire.Write); !ok || !write {
				break
			}
			if err := e.auto.Apply(act); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	if e.rejected != 0 {
		b.Fatalf("%d frames rejected", e.rejected)
	}
}
