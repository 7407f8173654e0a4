package rstp

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// TestRecvActionMatchesFresh: every pre-boxed recv RecvAction serves is
// == the freshly boxed wire.Recv, and so is everything it boxes fresh
// (tagged, payload-carrying, out-of-table and out-of-direction recvs);
// every endpoint of α, β(4), γ(4) and their hardened forms classifies
// the two identically. Table entries cost no allocation.
func TestRecvActionMatchesFresh(t *testing.T) {
	type recv struct {
		dir     wire.Dir
		p       wire.Packet
		payload string
	}
	var in []recv
	for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT} {
		for s := wire.Symbol(0); s < recvBound; s++ {
			in = append(in, recv{dir, wire.DataPacket(s), ""})
		}
		in = append(in, recv{dir, wire.AckPacket(), ""})
	}
	table := len(in)
	for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT, 0, 3} {
		in = append(in,
			recv{dir, wire.DataPacket(-1), ""},
			recv{dir, wire.DataPacket(recvBound), ""},
			recv{dir, wire.Packet{Kind: wire.Data, Symbol: 2, Tag: 9 << hardSeqShift}, ""},
			recv{dir, wire.Packet{Kind: wire.Ack, Tag: hardCtrlBit}, ""},
			recv{dir, wire.Packet{Kind: wire.Ack, Symbol: 3}, ""},
			recv{dir, wire.DataPacket(1), "payload"},
			recv{dir, wire.Packet{Kind: wire.Coded, Symbol: 1}, ""},
			recv{dir, wire.Packet{Kind: wire.DecodeAck}, ""},
		)
	}
	in = append(in, recv{wire.TtoR, wire.DataPacket(0), ""}, recv{wire.RtoT, wire.AckPacket(), ""})

	var autos []ioa.Automaton
	for _, s := range chaosSolutions(t) {
		x := chaosInput(s, 1)
		tx, rx, err := s.NewPair(x)
		if err != nil {
			t.Fatal(err)
		}
		htx, hrx, err := Harden(s, HardenOptions{}).NewPair(x)
		if err != nil {
			t.Fatal(err)
		}
		autos = append(autos, tx, rx, htx, hrx)
	}
	for i, r := range in {
		fresh := wire.Recv{Dir: r.dir, P: r.p, Payload: r.payload}
		got := RecvAction(r.dir, r.p, r.payload)
		if got != ioa.Action(fresh) {
			t.Fatalf("RecvAction(%v, %v, %q) = %#v, want %#v", r.dir, r.p, r.payload, got, fresh)
		}
		for _, a := range autos {
			if g, w := a.Classify(got), a.Classify(fresh); g != w {
				t.Errorf("%s classifies RecvAction %v as %v, the fresh recv as %v", a.Name(), fresh, g, w)
			}
		}
		if i < table {
			if n := testing.AllocsPerRun(10, func() { got = RecvAction(r.dir, r.p, r.payload) }); n != 0 {
				t.Errorf("RecvAction(%v, %v) allocates %.1f, want 0 for a table entry", r.dir, r.p, n)
			}
		}
	}
}

// TestHardenedMemoStaysPure: the hardened layer memoises its coalesced
// ack by the cumulative value and keeps each outstanding packet's boxed
// send for retransmission, but NextLocal stays pure. Asking twice
// returns the same action without allocating, an action returned before
// the state moved keeps its value, and the next NextLocal reflects the
// new state rather than the memo.
func TestHardenedMemoStaysPure(t *testing.T) {
	p := chaosParams()
	b, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := chaosInput(b, 4)
	ta, ra, err := Harden(b, HardenOptions{}).NewPair(x)
	if err != nil {
		t.Fatal(err)
	}
	tx, rx := ta.(*hardEnd), ra.(*hardEnd)
	ackFor := func(cum int64) ioa.Action {
		return wire.Send{Dir: wire.RtoT, P: hardAckPacket(cum, wire.RtoT)}
	}
	deliver := func(a ioa.Automaton, act ioa.Action) {
		t.Helper()
		if err := a.Apply(act); err != nil {
			t.Fatalf("%s: apply %v: %v", a.Name(), act, err)
		}
	}
	next := func(a ioa.Automaton) ioa.Action {
		t.Helper()
		act, ok := a.NextLocal()
		if !ok {
			t.Fatalf("%s: no enabled local action", a.Name())
		}
		return act
	}

	// Receiver: the ack for payload #0, asked twice, then made stale by
	// payload #1 before it is sent.
	deliver(rx, wire.Recv{Dir: wire.TtoR, P: hardWrap(0, wire.DataPacket(1), wire.TtoR)})
	stale := next(rx)
	if stale != ackFor(1) || next(rx) != stale {
		t.Fatalf("receiver after payload #0: NextLocal %v, want %v twice", stale, ackFor(1))
	}
	if n := testing.AllocsPerRun(10, func() { next(rx) }); n != 0 {
		t.Errorf("receiver NextLocal allocates %.1f with the ack memoised, want 0", n)
	}
	deliver(rx, wire.Recv{Dir: wire.TtoR, P: hardWrap(1, wire.DataPacket(2), wire.TtoR)})
	if stale != ackFor(1) {
		t.Fatalf("memoised ack changed value after payload #1: %v", stale)
	}
	if got := next(rx); got != ackFor(2) {
		t.Fatalf("receiver after payload #1: NextLocal %v, want %v", got, ackFor(2))
	}

	// Transmitter: send payload #0, step until its retransmission falls
	// due, then let an ack retire it before the retransmission is sent.
	first := next(tx)
	deliver(tx, first)
	var retx ioa.Action
	for i := 0; retx == nil; i++ {
		if i > 1000 {
			t.Fatal("payload #0 never fell due for retransmission")
		}
		if act := next(tx); act == first {
			retx = act
		} else {
			deliver(tx, act)
		}
	}
	if n := testing.AllocsPerRun(10, func() { next(tx) }); n != 0 {
		t.Errorf("transmitter NextLocal allocates %.1f for a due retransmission, want 0", n)
	}
	if next(tx) != first {
		t.Fatal("NextLocal moved on without an Apply")
	}
	deliver(tx, wire.Recv{Dir: wire.RtoT, P: hardAckPacket(1, wire.RtoT)})
	if got := next(tx); got == first {
		t.Fatalf("transmitter retransmits acknowledged payload #0: %v", got)
	}
	if retx != first {
		t.Fatalf("kept retransmission changed value after the ack: %v", retx)
	}
}

// TestHardenedSendStepAllocs: in steady state a hardened transmitter's
// fresh send allocates nothing once the tagged-action intern holds its
// send: a second transmitter over the same input sends the same values,
// so the first one warms the process-wide table (a cold count would
// depend on which tests ran before). The acks that retire packets shift
// the retransmission queue down in place, so appending the next packet
// reuses its backing array.
func TestHardenedSendStepAllocs(t *testing.T) {
	b, err := Beta(chaosParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	x := chaosInput(b, 64)
	const sends = 200
	acks := make([]ioa.Action, sends+1)
	for i := range acks {
		acks[i] = wire.Recv{Dir: wire.RtoT, P: hardAckPacket(int64(i+1), wire.RtoT)}
	}
	// sendStep steps tx up to and including its i-th fresh send and
	// then delivers that send's ack.
	sendStep := func(tx ioa.Automaton, i int) {
		for {
			act, ok := tx.NextLocal()
			if !ok {
				t.Fatal("transmitter ran out of input")
			}
			apply(t, tx, act)
			if _, send := act.(wire.Send); send {
				apply(t, tx, acks[i])
				return
			}
		}
	}
	warm, _, err := Harden(b, HardenOptions{}).NewPair(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= sends; i++ {
		sendStep(warm, i)
	}
	tx, _, err := Harden(b, HardenOptions{}).NewPair(x)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(sends, func() {
		sendStep(tx, i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("hardened send step allocates %.1f on a warm intern, want 0", allocs)
	}
}
