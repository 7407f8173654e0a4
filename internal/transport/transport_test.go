package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/wire"
)

func testClock() *Clock { return NewClock(50 * time.Microsecond) }

func testFrame(seq int64) wire.Frame {
	return wire.Frame{Session: 1, Dir: wire.TtoR, Seq: seq, P: wire.DataPacket(1)}
}

func TestClockMonotone(t *testing.T) {
	c := NewClock(time.Millisecond)
	a := c.Now()
	time.Sleep(3 * time.Millisecond)
	b := c.Now()
	if b < a {
		t.Fatalf("clock went backwards: %d then %d", a, b)
	}
	if b == a {
		t.Fatalf("clock did not advance over 3ms at 1ms ticks")
	}
	if c.Ticks(5) != 5*time.Millisecond {
		t.Fatalf("Ticks(5) = %v", c.Ticks(5))
	}
}

func collect(t *testing.T, ch <-chan wire.Frame, n int, timeout time.Duration) []wire.Frame {
	t.Helper()
	var out []wire.Frame
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case f, ok := <-ch:
			if !ok {
				t.Fatalf("deliveries closed after %d of %d frames", len(out), n)
			}
			out = append(out, f)
		case <-deadline:
			t.Fatalf("timed out with %d of %d frames", len(out), n)
		}
	}
	return out
}

func TestMemDeliversBothDirections(t *testing.T) {
	m := NewMem(testClock(), MemOptions{D: 4})
	defer m.Close()
	for i := 0; i < 10; i++ {
		if err := m.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(wire.Symbol(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Send(wire.Frame{Session: 1, Dir: wire.RtoT, Seq: 99, P: wire.AckPacket()}); err != nil {
		t.Fatal(err)
	}
	tr := collect(t, m.Deliveries(wire.TtoR), 10, 2*time.Second)
	rt := collect(t, m.Deliveries(wire.RtoT), 1, 2*time.Second)
	seen := map[int64]bool{}
	for _, f := range tr {
		if f.Dir != wire.TtoR || f.Session != 1 {
			t.Fatalf("stray frame %v", f)
		}
		seen[f.Seq] = true
	}
	if len(seen) != 10 {
		t.Fatalf("want 10 distinct seqs, got %d", len(seen))
	}
	if rt[0].P.Kind != wire.Ack {
		t.Fatalf("r->t frame %v", rt[0])
	}
}

// TestMemDeliveryOrderMatchesPolicy pins the ordering guarantee the
// session protocols depend on: whatever arrival times the delay policy
// computes, frames come out in that order — never reordered further by
// scheduler jitter. With MaxDelay (FIFO schedule) the output order must
// equal the send order exactly.
func TestMemDeliveryOrderMatchesPolicy(t *testing.T) {
	m := NewMem(testClock(), MemOptions{D: 8, Delay: chanmodel.MaxDelay{D: 8}})
	defer m.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := m.Send(wire.Frame{Session: 2, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(0)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, m.Deliveries(wire.TtoR), n, 5*time.Second)
	for i, f := range got {
		if f.Seq != int64(i+1) {
			t.Fatalf("delivery %d has seq %d: FIFO schedule was reordered", i, f.Seq)
		}
	}
}

func TestMemDelayWithinBound(t *testing.T) {
	clock := NewClock(200 * time.Microsecond)
	const d = 10
	m := NewMem(clock, MemOptions{D: d})
	defer m.Close()
	const n = 50
	sendTick := clock.Now()
	for i := 0; i < n; i++ {
		if err := m.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(0)}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, m.Deliveries(wire.TtoR), n, 5*time.Second)
	// All sends happened at ~sendTick; the last arrival tick must be
	// within d of the last send plus generous scheduler slack.
	lastArrival := clock.Now()
	if lastArrival > sendTick+3*d+20 {
		t.Fatalf("deliveries stretched to tick %d for sends at %d (d=%d)", lastArrival, sendTick, d)
	}
	if len(got) != n {
		t.Fatalf("lost frames: %d of %d", len(got), n)
	}
}

// TestMemFaultPlanInjection reuses a faults.Plan as the delay policy and
// checks loss and duplication show up in the delivered stream.
func TestMemFaultPlanInjection(t *testing.T) {
	plan := faults.NewPlan(3, chanmodel.MaxDelay{D: 4},
		faults.Fault{From: 0, To: 1 << 50, Drop: 0.5, Dup: 0.3})
	m := NewMem(testClock(), MemOptions{D: 4, Delay: plan})
	defer m.Close()
	const n = 400
	for i := 0; i < n; i++ {
		if err := m.Send(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(1)}); err != nil {
			t.Fatal(err)
		}
	}
	affected, dropped, duplicated, _, _ := plan.Stats()
	if affected != n {
		t.Fatalf("plan saw %d of %d sends", affected, n)
	}
	if dropped == 0 || duplicated == 0 {
		t.Fatalf("expected drops and dups at these rates, got dropped=%d duplicated=%d", dropped, duplicated)
	}
	want := n - dropped + duplicated
	got := collect(t, m.Deliveries(wire.TtoR), want, 5*time.Second)
	if len(got) != want {
		t.Fatalf("deliveries %d, want %d", len(got), want)
	}
}

func TestMemConcurrentSendersRaceClean(t *testing.T) {
	m := NewMem(testClock(), MemOptions{D: 3, Buffer: 8192})
	defer m.Close()
	var wg sync.WaitGroup
	const senders, per = 16, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = m.Send(wire.Frame{Session: uint32(s), Dir: wire.TtoR, Seq: int64(s*per + i + 1), P: wire.DataPacket(0)})
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		collect(t, m.Deliveries(wire.TtoR), senders*per, 10*time.Second)
		close(done)
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out draining concurrent sends")
	}
}

func TestMemSendAfterCloseFails(t *testing.T) {
	m := NewMem(testClock(), MemOptions{D: 2})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := m.Send(wire.Frame{Dir: wire.TtoR, P: wire.DataPacket(0)}); err != ErrClosed {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	// Delivery channels must be closed.
	if _, ok := <-m.Deliveries(wire.TtoR); ok {
		t.Fatal("t->r deliveries still open after close")
	}
}

func TestUDPLoopbackRoundTrip(t *testing.T) {
	u, err := NewUDPLoopback(256)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	defer u.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if err := u.Send(wire.Frame{Session: 9, Dir: wire.TtoR, Seq: int64(i + 1), P: wire.DataPacket(wire.Symbol(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Send(wire.Frame{Session: 9, Dir: wire.RtoT, Seq: 1, P: wire.AckPacket()}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, u.Deliveries(wire.TtoR), n, 5*time.Second)
	seen := map[int64]bool{}
	for _, f := range got {
		seen[f.Seq] = true
	}
	if len(seen) != n {
		t.Fatalf("want %d distinct frames, got %d", n, len(seen))
	}
	rt := collect(t, u.Deliveries(wire.RtoT), 1, 5*time.Second)
	if rt[0].P.Kind != wire.Ack {
		t.Fatalf("r->t frame %v", rt[0])
	}
}

// TestUDPMalformedDatagramIgnored sends raw junk (including an
// over-declared payload length) straight at the receiver socket: the
// reader must count and drop it without dying.
func TestUDPMalformedDatagramIgnored(t *testing.T) {
	u, err := NewUDPLoopback(16)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	defer u.Close()
	raw, err := wire.EncodeFrame(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1), Payload: "\x01\x02\x03"})
	if err != nil {
		t.Fatal(err)
	}
	raw[32], raw[33] = 0xff, 0xff // declare 65535 payload bytes
	junk, err := net.Dial("udp4", u.rAddr.String())
	if err != nil {
		t.Skipf("udp dial unavailable: %v", err)
	}
	defer junk.Close()
	if _, err := junk.Write(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := junk.Write([]byte("definitely not a frame")); err != nil {
		t.Fatal(err)
	}
	// A good frame after the junk must still get through.
	if err := u.Send(wire.Frame{Session: 2, Dir: wire.TtoR, Seq: 5, P: wire.DataPacket(2)}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, u.Deliveries(wire.TtoR), 1, 5*time.Second)
	if got[0].Session != 2 || got[0].Seq != 5 {
		t.Fatalf("unexpected frame %v", got[0])
	}
	deadline := time.Now().Add(2 * time.Second)
	for u.Malformed() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if u.Malformed() < 2 {
		t.Fatalf("malformed datagrams not counted: %d", u.Malformed())
	}
}

// TestUDPSendRejectsOversizedPayload pins the datagram bound: a frame
// whose header+payload cannot fit one IPv4 UDP datagram (65,507 payload
// bytes) is rejected up front with a clear error instead of failing in
// the kernel with EMSGSIZE, while the exact bound still sends.
func TestUDPSendRejectsOversizedPayload(t *testing.T) {
	u, err := NewUDPLoopback(16)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	defer u.Close()
	f := wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1), Payload: string(make([]byte, MaxUDPPayload+1))}
	if err := u.Send(f); err == nil {
		t.Fatal("frame over the datagram bound accepted")
	}
	f.Payload = string(make([]byte, MaxUDPPayload))
	if err := u.Send(f); err != nil {
		t.Fatalf("max-size frame rejected: %v", err)
	}
	got := collect(t, u.Deliveries(wire.TtoR), 1, 5*time.Second)
	if len(got[0].Payload) != MaxUDPPayload {
		t.Fatalf("max-size payload truncated to %d bytes", len(got[0].Payload))
	}
}
