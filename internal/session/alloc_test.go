package session

import (
	"context"
	"testing"
	"time"

	"repro/internal/ioa"
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
	return receiverEndpoint(r)
}

// receiverEndpoint is a receiver-side endpoint over auto, with tracing
// and metrics off.
func receiverEndpoint(auto ioa.Automaton) *endpoint {
	m := &mux{}
	m.init(Config{Params: applyParams, Clock: transport.NewClock(0), TraceLimit: -1}, "receiver")
	return newEndpoint(m, 1, auto)
}

// hardenedFrames steps a hardened β(4) transmitter through its first n
// tagged data sends and returns them as delivered t→r frames, together
// with the matching hardened receiver. Each send interns its recv in
// rstp's process-wide table as it would in a served session.
func hardenedFrames(tb testing.TB, n int) ([]wire.Frame, ioa.Automaton) {
	tb.Helper()
	b, err := rstp.Beta(applyParams, 4)
	if err != nil {
		tb.Fatal(err)
	}
	x := make([]wire.Bit, b.BlockBits*(n/applyParams.Delta1()+2))
	for i := range x {
		x[i] = wire.Bit(i % 3 % 2)
	}
	tx, rx, err := rstp.Harden(b, rstp.HardenOptions{}).NewPair(x)
	if err != nil {
		tb.Fatal(err)
	}
	var frames []wire.Frame
	for len(frames) < n {
		act, ok := tx.NextLocal()
		if !ok {
			tb.Fatalf("transmitter stopped after %d sends", len(frames))
		}
		if err := tx.Apply(act); err != nil {
			tb.Fatal(err)
		}
		if s, send := act.(wire.Send); send {
			frames = append(frames, wire.Frame{Session: 1, Dir: s.Dir, Seq: int64(2*len(frames) + 1), P: s.P})
		}
	}
	return frames, rx
}

// betaFrame is the n-th delivered t→r frame of a bare β(4) session.
func betaFrame(n int) wire.Frame {
	return wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(2*n + 1), P: wire.DataPacket(wire.Symbol(n % 4))}
}

// TestEndpointApplyAllocs is the endpoint's allocation guard: a
// delivered bare-β frame's recv action comes pre-boxed
// (rstp.RecvAction), and so does a hardened frame's tagged recv once the
// peer's send has interned it, so applying either allocates nothing.
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
	if allocs != 0 {
		t.Fatalf("endpoint.apply allocates %.1f per frame, want 0", allocs)
	}

	frames, rx := hardenedFrames(t, applyParams.Delta1()-1)
	he := receiverEndpoint(rx)
	n = 0
	allocs = testing.AllocsPerRun(len(frames)-1, func() {
		he.apply(frames[n])
		n++
	})
	if he.deliveries != n || he.rejected != 0 {
		t.Fatalf("applied %d hardened frames: %d delivered, %d rejected", n, he.deliveries, he.rejected)
	}
	if allocs != 0 {
		t.Fatalf("endpoint.apply allocates %.1f per hardened frame, want 0", allocs)
	}
}

// TestTransferConstructAllocs pins what one whole served session
// allocates: a warm 48-bit β(4) Pipe.Transfer over Mem, with both
// endpoints, their automata, the output tape, both traces and both final
// reports. Each side sizes a new trace from its last session's, so it is
// allocated once, and hands a retired endpoint's tape and trace over
// without a copy. Growing each trace by doubling and copying it into its
// report cost 40.
func TestTransferConstructAllocs(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, _ := memConfig(t, sol, nil)
	cfg.IdleTicks = -1 // the benchmark's setting: Transfer evicts each session
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	x := inputFor(t, sol, 8, 7) // 48 bits, the size of the benchmark's churn sessions
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	transfer := func() {
		res, err := pipe.Transfer(ctx, x)
		if err != nil || !res.Completed {
			t.Fatalf("transfer: err=%v completed=%v", err, res.Completed)
		}
	}
	transfer() // the first session of each side has no trace length to size from
	allocs := testing.AllocsPerRun(20, transfer)
	t.Logf("%.1f allocs per transfer", allocs)
	if allocs > 26 {
		t.Fatalf("a warm Pipe.Transfer allocates %.1f, want <= 26", allocs)
	}
}

// acceptAll is a receiver automaton that takes every recv as an input
// and keeps the last one it applied.
type acceptAll struct{ last ioa.Action }

func (a *acceptAll) Name() string { return "r" }

func (a *acceptAll) Classify(act ioa.Action) ioa.Class {
	if _, ok := act.(wire.Recv); ok {
		return ioa.ClassInput
	}
	return ioa.ClassNone
}

func (a *acceptAll) NextLocal() (ioa.Action, bool) { return nil, false }

func (a *acceptAll) Apply(act ioa.Action) error {
	a.last = act
	return nil
}

// TestEndpointApplyRecordsFreshRecv: frames off the pre-boxed table (a
// tagged packet, a payload, symbols outside [0, 256), a tagged ack)
// still apply, and the automaton and the trace see the same recv as
// a freshly boxed one, as do the table's own bare data and ack frames.
func TestEndpointApplyRecordsFreshRecv(t *testing.T) {
	auto := &acceptAll{}
	m := &mux{}
	m.init(Config{Params: applyParams, Clock: transport.NewClock(0), TraceLimit: 64}, "receiver")
	e := newEndpoint(m, 1, auto)
	frames := []wire.Frame{
		{Dir: wire.TtoR, P: wire.DataPacket(3)},
		{Dir: wire.RtoT, P: wire.AckPacket()},
		{Dir: wire.TtoR, P: wire.Packet{Kind: wire.Data, Symbol: 3, Tag: 5 << 5}},
		{Dir: wire.TtoR, P: wire.DataPacket(2), Payload: "coded"},
		{Dir: wire.TtoR, P: wire.DataPacket(300)},
		{Dir: wire.TtoR, P: wire.DataPacket(-1)},
		{Dir: wire.RtoT, P: wire.Packet{Kind: wire.Ack, Tag: 1}},
	}
	for i, f := range frames {
		f.Session, f.Seq = 1, int64(2*i+1)
		e.apply(f)
		want := wire.Recv{Dir: f.Dir, P: f.P, Payload: f.Payload}
		if e.deliveries != i+1 {
			t.Fatalf("frame %v: %d deliveries, want %d", f, e.deliveries, i+1)
		}
		if auto.last != ioa.Action(want) {
			t.Errorf("frame %v: automaton applied %#v, want %#v", f, auto.last, want)
		}
		if ev := e.trace[len(e.trace)-1]; ev.Action != ioa.Action(want) || ev.PacketSeq != f.Seq || ev.Actor != "chan" {
			t.Errorf("frame %v: trace recorded %+v, want %v from chan", f, ev, want)
		}
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
