package transport

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/wire"
)

// refHeap drives pendingHeap's order through container/heap: the
// reference the typed heap must match pop for pop.
type refHeap []pending

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return pendingHeap(h).less(i, j) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(pending)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestPendingHeapMatchesContainerHeap feeds the typed heap and
// container/heap the same seeded (at, tie) stream — few distinct
// arrival ticks, so most keys tie on at — with interleaved pushes and
// pops, draining to empty and refilling, and requires the same pop
// sequence from both.
func TestPendingHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got pendingHeap
		var want refHeap
		tie := int64(0)
		pops := 0
		for round := 0; round < 8; round++ {
			for op := 0; op < 300; op++ {
				if len(got) == 0 || rng.Intn(3) > 0 {
					e := pending{at: rng.Int63n(6), tie: tie, sent: tie, f: testFrame(tie)}
					tie++
					got.push(e)
					heap.Push(&want, e)
					continue
				}
				g, w := got.pop(), heap.Pop(&want).(pending)
				if g.at != w.at || g.tie != w.tie {
					t.Fatalf("seed %d pop %d: typed heap gave (%d,%d), container/heap (%d,%d)", seed, pops, g.at, g.tie, w.at, w.tie)
				}
				pops++
			}
			for len(got) > 0 {
				g, w := got.pop(), heap.Pop(&want).(pending)
				if g.at != w.at || g.tie != w.tie {
					t.Fatalf("seed %d drain pop %d: typed heap gave (%d,%d), container/heap (%d,%d)", seed, pops, g.at, g.tie, w.at, w.tie)
				}
				pops++
			}
			if want.Len() != 0 {
				t.Fatalf("seed %d: reference heap holds %d after the typed heap drained", seed, want.Len())
			}
		}
	}
}

// TestPendingHeapPopZeroesSlot checks that a popped pending leaves no
// copy of its frame in the heap's backing array.
func TestPendingHeapPopZeroesSlot(t *testing.T) {
	var h pendingHeap
	for i := int64(0); i < 4; i++ {
		f := testFrame(i)
		f.Payload = string([]byte{byte(i)})
		h.push(pending{at: i, tie: i, f: f})
	}
	for len(h) > 0 {
		h.pop()
		if vacated := h[:len(h)+1][len(h)]; vacated.f.Payload != "" {
			t.Fatalf("vacated slot still holds frame %d's payload", vacated.f.Seq)
		}
	}
}

// TestDelayLineHeapNoAlloc is the delay line's allocation guard: once
// its backing array has grown, a steady stream of frames through the
// heap (push one, pop one) allocates nothing.
func TestDelayLineHeapNoAlloc(t *testing.T) {
	var l delayLine
	for i := int64(0); i < 64; i++ {
		l.add(i, i, testFrame(i))
	}
	i := int64(64)
	allocs := testing.AllocsPerRun(1000, func() {
		l.add(i, i, testFrame(i))
		l.heap.pop()
		i++
	})
	if allocs != 0 {
		t.Fatalf("delay line push+pop allocates %.1f per frame, want 0", allocs)
	}
}

// scripted is a delay policy for tests: the n-th frame in a direction
// arrives delays[n] ticks after it was sent (0 once the script runs
// out). It records each arrival tick in at and returns it in a reused
// slice, so the policy itself allocates nothing per frame.
type scripted struct {
	delays []int64
	at     []int64
	out    [1]int64
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) Arrivals(dirSeq, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	s.out[0] = sendTime
	if dirSeq < int64(len(s.delays)) {
		s.out[0] += s.delays[dirSeq]
		s.at[dirSeq] = s.out[0]
	}
	return s.out[:]
}

// TestMemNeverReleasesEarly drives the reused release timer through its
// re-arm paths: a frame due far ahead arms it, a nearer one wakes the
// scheduler and stops it, and a seeded stream of near and far frames
// keeps stopping and re-arming it. Every frame Mem hands out must have
// reached its arrival tick, and frames must come out in (arrival tick,
// send order).
func TestMemNeverReleasesEarly(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(7))
	delays := make([]int64, n)
	delays[0], delays[1] = 400, 40 // far, then nearer: wake + Stop
	for i := 2; i < n; i++ {
		delays[i] = rng.Int63n(30)
	}
	policy := &scripted{delays: delays, at: make([]int64, n)}
	clock := NewClock(20 * time.Microsecond)
	m := NewMem(clock, MemOptions{D: 400, Delay: policy, Buffer: n})
	defer m.Close()

	got := make(chan []int64, 1) // Seq-1 of each frame, in delivery order
	go func() {
		var order []int64
		for f := range m.Deliveries(wire.TtoR) {
			// The policy counts ticks from the line's first frame;
			// the frame has been released, so that anchor is set.
			if at, now := policy.at[f.Seq-1]+m.line.anchor, clock.Now(); now < at {
				t.Errorf("frame %d released at tick %d, before its arrival tick %d", f.Seq, now, at)
			}
			if order = append(order, f.Seq-1); len(order) == n {
				break
			}
		}
		got <- order
	}()
	for i := 0; i < n; i++ {
		if err := m.Send(testFrame(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
		if i >= 2 && rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}
	var order []int64
	select {
	case order = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for deliveries")
	}
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if policy.at[a] > policy.at[b] || policy.at[a] == policy.at[b] && a > b {
			t.Fatalf("delivery %d: frame %d (tick %d) after frame %d (tick %d): not (arrival tick, send order)",
				k, b+1, policy.at[b], a+1, policy.at[a])
		}
	}
}

// memSendDeliver sends one frame through m and receives it.
func memSendDeliver(tb testing.TB, m *Mem, f wire.Frame) {
	if err := m.Send(f); err != nil {
		tb.Fatal(err)
	}
	<-m.Deliveries(f.Dir)
}

// TestMemFramePathNoAlloc checks that Mem's own share of a frame's
// journey — the delay line's heap, the reused release timer, the
// scheduler, the delivery channel and the backlog ring behind it —
// allocates nothing once warm. The scripted policy returns a reused
// slice; the library's policies allocate their one-element Arrivals
// result, which is chanmodel's cost.
func TestMemFramePathNoAlloc(t *testing.T) {
	delays := make([]int64, 4096)
	for i := range delays {
		delays[i] = int64(i % 2) // every other frame waits on the timer
	}
	policy := &scripted{delays: delays, at: make([]int64, len(delays))}
	m := NewMem(NewClock(20*time.Microsecond), MemOptions{D: 1, Delay: policy, Buffer: 1 << 15})
	defer m.Close()
	f := testFrame(1)
	for i := 0; i < 100; i++ {
		memSendDeliver(t, m, f)
	}
	if allocs := testing.AllocsPerRun(1000, func() { memSendDeliver(t, m, f) }); allocs != 0 {
		t.Fatalf("Mem send→deliver allocates %.1f per frame, want 0", allocs)
	}

	// Leave a backlog of 200 frames past the channel's capacity. Each
	// frame sent below is released with that backlog still waiting
	// (one is read per one sent), so it waits on the ring behind it and
	// reaches the channel from the scheduler's select or a later
	// release; the ring grew while the backlog built up and is reused.
	const backlog = defaultBuffer + 200
	for i := 0; i < backlog; i++ {
		if err := m.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		memSendDeliver(t, m, f)
	}
	if allocs := testing.AllocsPerRun(1000, func() { memSendDeliver(t, m, f) }); allocs != 0 {
		t.Fatalf("Mem send→deliver across the backlog ring allocates %.1f per frame, want 0", allocs)
	}
	collect(t, m.Deliveries(wire.TtoR), backlog, 5*time.Second)
}

// TestNewMemReservesNoBacklog checks that a Mem bounded at 1<<15 frames
// a direction does not reserve them: its storage grows with the backlog.
func TestNewMemReservesNoBacklog(t *testing.T) {
	clock := NewClock(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMem(clock, MemOptions{Buffer: 1 << 15})
	runtime.ReadMemStats(&after)
	defer m.Close()
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("NewMem allocated %d KiB, want under 256 KiB", got>>10)
	}
}

// TestNewUDPReservesNoBacklog checks that a UDP bounded at 1<<14 frames
// a direction does not reserve them: its storage grows with the backlog.
// One frame crosses each direction first, so whatever the two readers
// allocate for their 64 KiB datagram buffers, on their own goroutines,
// is in the count; the bound leaves room for both.
func TestNewUDPReservesNoBacklog(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	u := newUDP(t, 1<<14)
	defer u.Close()
	for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT} {
		f := testFrame(1)
		f.Dir = dir
		if err := u.Send(f); err != nil {
			t.Fatal(err)
		}
		collect(t, u.Deliveries(dir), 1, 5*time.Second)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 384<<10 {
		t.Fatalf("NewUDPLoopback allocated %d KiB, want under 384 KiB", got>>10)
	}
}

// dirScripted scripts each direction's delays on its own, so both
// directions' arrival ticks can be recorded.
type dirScripted [2]scripted

func (s *dirScripted) Name() string { return "dir-scripted" }
func (s *dirScripted) Arrivals(dirSeq, sendTime int64, d wire.Dir, p wire.Packet) []int64 {
	return s[dirIndex(d)].Arrivals(dirSeq, sendTime, d, p)
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMemStalledConsumerLosesNothing stops reading TtoR while more than
// four channels' worth of frames fall due, then resumes and sends more
// while the backlog drains: every frame arrives exactly once, in the
// policy's (arrival tick, send order), and RtoT frames sent during the
// stall are delivered while it lasts.
func TestMemStalledConsumerLosesNothing(t *testing.T) {
	const stalled, more, back = 4*defaultBuffer + 500, 2000, 16
	const n = stalled + more
	rng := rand.New(rand.NewSource(3))
	policy := &dirScripted{
		{delays: make([]int64, n), at: make([]int64, n)},
		{delays: make([]int64, back), at: make([]int64, back)},
	}
	for i := range policy[0].delays {
		policy[0].delays[i] = rng.Int63n(8)
	}
	m := NewMem(NewClock(20*time.Microsecond), MemOptions{D: 8, Delay: policy, Buffer: 8 * defaultBuffer})
	defer m.Close()
	send := func(from, to int) {
		for i := from; i < to; i++ {
			if err := m.Send(testFrame(int64(i + 1))); err != nil {
				t.Error(err)
				return
			}
		}
	}
	send(0, stalled)
	waitFor(t, "every TtoR frame to fall due", 5*time.Second, func() bool { return m.delivered.Load() == stalled })

	for i := 0; i < back; i++ {
		if err := m.Send(wire.Frame{Session: 1, Dir: wire.RtoT, Seq: int64(i + 1), P: wire.AckPacket()}); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, m.Deliveries(wire.RtoT), back, 5*time.Second)

	go send(stalled, n) // arrives behind the backlog while it drains
	seen := make([]bool, n)
	got := collect(t, m.Deliveries(wire.TtoR), n, 5*time.Second)
	at := policy[0].at
	for k, f := range got {
		i := f.Seq - 1
		if seen[i] {
			t.Fatalf("frame %d delivered twice", f.Seq)
		}
		seen[i] = true
		if k > 0 {
			if p := got[k-1].Seq - 1; at[p] > at[i] || at[p] == at[i] && p > i {
				t.Fatalf("delivery %d: frame %d (tick %d) after frame %d (tick %d): not (arrival tick, send order)",
					k, i+1, at[i], p+1, at[p])
			}
		}
	}
}

// TestMemBacklogBoundHoldsRelease fills one direction past Buffer
// waiting frames: the release stops at Buffer frames plus the one it
// holds, and once the consumer reads again every frame arrives, in
// order.
func TestMemBacklogBoundHoldsRelease(t *testing.T) {
	const buffer = 2 * defaultBuffer
	const n = 3 * buffer
	m := NewMem(NewClock(20*time.Microsecond), MemOptions{D: 1, Delay: chanmodel.Zero{}, Buffer: buffer})
	defer m.Close()
	for i := 0; i < n; i++ {
		if err := m.Send(testFrame(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the backlog to reach its bound", 5*time.Second, func() bool { return m.delivered.Load() >= buffer })
	time.Sleep(20 * time.Millisecond) // 1000 ticks for a release past the bound to show
	if got := m.delivered.Load(); got != buffer+1 {
		t.Fatalf("released %d frames with the consumer stalled, want Buffer+1 = %d", got, buffer+1)
	}
	for k, f := range collect(t, m.Deliveries(wire.TtoR), n, 5*time.Second) {
		if f.Seq != int64(k+1) {
			t.Fatalf("delivery %d is frame %d, want %d", k, f.Seq, k+1)
		}
	}
}

// TestFrameRingMatchesSlice drives the backlog ring with seeded
// interleaved pushes and pops, wrapping and growing it, against a plain
// slice queue, and checks popped slots are zeroed.
func TestFrameRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var r frameRing
	var want []wire.Frame
	seq := int64(0)
	for op := 0; op < 20000; op++ {
		if r.n < 1000 && (r.n == 0 || rng.Intn(5) < 3) {
			seq++
			f := testFrame(seq)
			f.Payload = "p"
			r.push(f, 1000)
			want = append(want, f)
			continue
		}
		if got := r.front(); got != want[0] {
			t.Fatalf("op %d: ring front is frame %d, want %d", op, got.Seq, want[0].Seq)
		}
		head := r.head
		r.pop()
		want = want[1:]
		if r.buf[head] != (wire.Frame{}) {
			t.Fatalf("op %d: popped slot still holds frame %d", op, r.buf[head].Seq)
		}
	}
	if len(r.buf) > 1000 {
		t.Fatalf("ring grew to %d slots past its limit of 1000", len(r.buf))
	}
}

// TestMemPayloadFrameNoExtraAlloc checks that a frame's payload rides
// through Mem by reference: sending and delivering a frame that carries
// a coded-symbol-sized payload allocates no more than a payload-free
// frame, and the delivered payload is the sent string itself.
func TestMemPayloadFrameNoExtraAlloc(t *testing.T) {
	delays := make([]int64, 4096)
	policy := &scripted{delays: delays, at: make([]int64, len(delays))}
	m := NewMem(NewClock(20*time.Microsecond), MemOptions{D: 1, Delay: policy})
	defer m.Close()
	bare := testFrame(1)
	loaded := testFrame(2)
	loaded.Payload = strings.Repeat("c", wire.CodedSymbolLen)
	for i := 0; i < 100; i++ {
		memSendDeliver(t, m, bare)
		memSendDeliver(t, m, loaded)
	}
	without := testing.AllocsPerRun(1000, func() { memSendDeliver(t, m, bare) })
	with := testing.AllocsPerRun(1000, func() { memSendDeliver(t, m, loaded) })
	if with > without {
		t.Fatalf("Mem send→deliver allocates %.1f per payload frame, %.1f per payload-free frame", with, without)
	}
	if err := m.Send(loaded); err != nil {
		t.Fatal(err)
	}
	if got := <-m.Deliveries(wire.TtoR); unsafe.StringData(got.Payload) != unsafe.StringData(loaded.Payload) {
		t.Fatal("Mem delivered a copy of the payload, not the sent string")
	}
}

// BenchmarkMemSendDeliver is one frame through the in-memory transport:
// Send under the library's zero-delay policy, the delay line, the
// scheduler goroutine and the delivery channel. Its one alloc/op is
// chanmodel.Zero's Arrivals result: a value-type policy boxes a fresh
// slice, where Mem's default UniformRandom reuses one it owns.
func BenchmarkMemSendDeliver(b *testing.B) {
	m := NewMem(NewClock(0), MemOptions{Delay: chanmodel.Zero{}})
	defer m.Close()
	f := testFrame(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memSendDeliver(b, m, f)
	}
}

// newUDP opens a loopback UDP with the given backlog bound, skipping
// the test when loopback sockets are unavailable.
func newUDP(t *testing.T, buffer int) *UDP {
	t.Helper()
	u, err := NewUDPLoopback(buffer)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	return u
}

// udpTaken counts the frames u's reader has taken off dir's socket:
// those waiting in its channel or on its ring, and those it dropped.
func udpTaken(u *UDP, dir wire.Dir) int64 {
	d := dirIndex(dir)
	b := &u.backlog[d]
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(u.out.ring[d].n+len(u.out.ch[d])) + u.dropped.Load()
}

// udpDraining reports whether a drainer runs for dir.
func udpDraining(u *UDP, dir wire.Dir) bool {
	b := &u.backlog[dirIndex(dir)]
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining
}

// sendPaced sends frames from+1..to in dir over u, 64 at a time, and
// after each batch waits until u's reader has taken every frame sent.
// The kernel's socket buffer then never holds more than one batch, so
// it loses nothing: a lost datagram would stall the wait and fail the
// test instead of passing for a transport drop or hiding one. read
// counts the frames a consumer has already read off dir's channel (nil
// while nothing reads it).
func sendPaced(t *testing.T, u *UDP, dir wire.Dir, from, to int, read *atomic.Int64) {
	t.Helper()
	for i := from; i < to; {
		for end := min(i+64, to); i < end; i++ {
			f := testFrame(int64(i + 1))
			f.Dir = dir
			if err := u.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		sent := int64(i)
		waitFor(t, fmt.Sprintf("the reader to take frame %d (lost in the kernel?)", sent), 5*time.Second, func() bool {
			taken := udpTaken(u, dir)
			if read != nil {
				taken += read.Load()
			}
			return taken >= sent
		})
	}
}

// inOrder fails the test unless got holds frames 1..len(got) in order.
func inOrder(t *testing.T, got []wire.Frame) {
	t.Helper()
	for k, f := range got {
		if f.Seq != int64(k+1) {
			t.Fatalf("delivery %d is frame %d, want %d", k, f.Seq, k+1)
		}
	}
}

// TestUDPBacklogLosesNothing leaves more than four channels' worth of
// frames waiting in one direction with no consumer reading: a drainer
// runs while the ring holds frames, none is dropped and the other
// direction flows meanwhile. Then the consumer reads while more frames
// arrive behind the backlog: every frame arrives once, in send order,
// and the drainer exits once the ring is empty.
func TestUDPBacklogLosesNothing(t *testing.T) {
	const stalled, more, back = 4*defaultBuffer + 500, 2000, 16
	const n = stalled + more
	u := newUDP(t, 1<<14)
	defer u.Close()
	sendPaced(t, u, wire.TtoR, 0, stalled, nil)
	if d := u.Dropped(); d != 0 {
		t.Fatalf("dropped %d of %d frames with the backlog under its bound", d, stalled)
	}
	if !udpDraining(u, wire.TtoR) {
		t.Fatal("no drainer runs with a backlog past the channel")
	}
	sendPaced(t, u, wire.RtoT, 0, back, nil)
	inOrder(t, collect(t, u.Deliveries(wire.RtoT), back, 5*time.Second))

	var read atomic.Int64
	got := make(chan []wire.Frame, 1)
	go func() {
		var fs []wire.Frame
		for f := range u.Deliveries(wire.TtoR) {
			fs = append(fs, f)
			if read.Add(1) == n {
				break
			}
		}
		got <- fs
	}()
	sendPaced(t, u, wire.TtoR, stalled, n, &read)
	select {
	case fs := <-got:
		if len(fs) != n {
			t.Fatalf("deliveries closed after %d of %d frames", len(fs), n)
		}
		inOrder(t, fs)
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out with %d of %d frames read", read.Load(), n)
	}
	waitFor(t, "the drainer to exit", 5*time.Second, func() bool { return !udpDraining(u, wire.TtoR) })
	if d, m := u.Dropped(), u.Malformed(); d != 0 || m != 0 {
		t.Fatalf("dropped %d, malformed %d, want 0", d, m)
	}
}

// TestUDPDropsPastBacklogBound fills one direction past buffer waiting
// frames with no consumer reading, at a bound the channel holds alone
// and at one that needs the ring: exactly the frames past buffer are
// dropped and counted, and the first buffer frames arrive in order.
func TestUDPDropsPastBacklogBound(t *testing.T) {
	const extra = 300
	for _, buffer := range []int{256, 2 * defaultBuffer} {
		t.Run(fmt.Sprint(buffer), func(t *testing.T) {
			u := newUDP(t, buffer)
			defer u.Close()
			sendPaced(t, u, wire.TtoR, 0, buffer+extra, nil)
			if d := u.Dropped(); d != extra {
				t.Fatalf("dropped %d frames past a backlog of %d, want %d", d, buffer, extra)
			}
			inOrder(t, collect(t, u.Deliveries(wire.TtoR), buffer, 5*time.Second))
			if left := udpTaken(u, wire.TtoR) - extra; left != 0 {
				t.Fatalf("%d frames still wait after the first %d were read", left, buffer)
			}
		})
	}
}

// TestUDPCloseWithDrainerBlocked closes a UDP while its drainer waits
// on a full channel, bare and as Open builds it with a fault plan
// (whose delay line closes first): Close returns, both delivery
// channels are closed and every goroutine the transport started exits.
func TestUDPCloseWithDrainerBlocked(t *testing.T) {
	for _, kind := range []string{"bare", "faults"} {
		t.Run(kind, func(t *testing.T) {
			clock := testClock()
			before := runtime.NumGoroutine()
			var u *UDP
			if kind == "bare" {
				u = newUDP(t, 1<<14)
			} else {
				// A window that never opens: the line runs, the plan
				// touches nothing.
				u = openFaulty(t, "udp", clock, 2, 1, faults.Fault{From: 1 << 40, To: 1 << 50, Drop: 1}).(*UDP)
			}
			sendPaced(t, u, wire.TtoR, 0, defaultBuffer+100, nil)
			if !udpDraining(u, wire.TtoR) {
				t.Fatal("no drainer runs with a backlog past the channel")
			}
			closed := make(chan error, 1)
			go func() { closed <- u.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close blocked with a drainer waiting on a full channel")
			}
			for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT} {
				timeout := time.After(5 * time.Second)
			drain:
				for {
					select {
					case _, ok := <-u.Deliveries(dir):
						if !ok {
							break drain
						}
					case <-timeout:
						t.Fatalf("%v deliveries still open after Close", dir)
					}
				}
			}
			waitFor(t, "the transport's goroutines to exit", 5*time.Second,
				func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// TestUDPSendNoAlloc checks that a warm UDP.Send — encode into the
// direction's reused buffer, one datagram write — allocates nothing.
func TestUDPSendNoAlloc(t *testing.T) {
	u, err := NewUDPLoopback(1 << 14)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	defer u.Close()
	var drain sync.WaitGroup
	drain.Add(1)
	go func() { // keep the delivery buffer from filling
		defer drain.Done()
		for range u.Deliveries(wire.TtoR) {
		}
	}()
	f := testFrame(1)
	for i := 0; i < 10; i++ {
		if err := u.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := u.Send(f); err != nil {
			t.Fatal(err)
		}
	})
	u.Close()
	drain.Wait()
	if allocs != 0 {
		t.Fatalf("warm UDP.Send allocates %.1f per frame, want 0", allocs)
	}
}

// TestUDPConcurrentSendsIntact sends from several goroutines per
// direction at once, as callers do while a fault plan's delay line
// writes delayed frames: the per-direction encode buffer must never mix
// two frames, so every datagram parses and every delivered payload
// matches its frame.
func TestUDPConcurrentSendsIntact(t *testing.T) {
	u, err := NewUDPLoopback(1 << 14)
	if err != nil {
		t.Skipf("udp loopback unavailable: %v", err)
	}
	defer u.Close()
	const senders, perSender = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dir := []wire.Dir{wire.TtoR, wire.RtoT}[g%2]
			for i := 0; i < perSender; i++ {
				seq := int64(g*perSender + i + 1)
				f := wire.Frame{Session: uint32(g), Dir: dir, Seq: seq, P: wire.DataPacket(1), Payload: strings.Repeat(string([]byte{byte(seq)}), g+1)}
				if err := u.Send(f); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT} {
		got := 0
		timeout := time.After(2 * time.Second)
	drain:
		for got < senders/2*perSender {
			select {
			case f := <-u.Deliveries(dir):
				got++
				g := int(f.Session)
				if f.Seq <= int64(g*perSender) || f.Seq > int64((g+1)*perSender) ||
					f.Payload != strings.Repeat(string([]byte{byte(f.Seq)}), g+1) {
					t.Fatalf("frame mixed across senders: session %d seq %d payload %v", f.Session, f.Seq, f.Payload)
				}
			case <-timeout: // loopback may drop under a burst; what arrived must be intact
				break drain
			}
		}
		if got == 0 {
			t.Fatalf("no %v frames delivered", dir)
		}
	}
	if m := u.Malformed(); m != 0 {
		t.Fatalf("%d datagrams failed to parse", m)
	}
}
