package main

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ioa"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	spanEvery   = 16      // spans are kept for sessions with ID % spanEvery == 0
	maxSpans    = 1 << 18 // hard cap on spans held in memory per pass
	sampleEvery = 97      // every 97th frame sent is kept for the wire microbenchmark
	maxFrames   = 2048
	stampShards = 64
)

// tracer instruments one traced pass from the benchmark's side of each
// layer boundary. It decorates the transport (timing Send, stamping each
// frame's channel delay by Frame.Seq, interposing one forwarding
// goroutine per direction) and the pair builder (timing NewPair and
// wrapping both automata to time Classify, NextLocal and Apply). Event
// timings are recorded only inside the measured window; session-level
// counts only for the sessions the window counts.
//
// No lock is shared by every frame: send stamps are sharded by Seq and
// inbox FIFOs live in their session. A single tracer mutex taken per
// frame becomes a convoy on a saturated 2-core host, slows the endpoint
// loops until their inboxes overflow, and so breaks the sessions the
// decorators must leave alone.
type tracer struct {
	base      time.Time
	clock     *transport.Clock // the last wrapped stack's clock
	block     int              // protocol block size in bits
	measuring atomic.Bool

	stepGap, stepNs, recvNs, sendNs, delay, pairBuild hist // ns
	inbox, firstWrite, teardown                       hist // ns, counted sessions only
	stepGaps, stepLate                                atomic.Int64
	windowSends, windowHandouts, lateHandouts         atomic.Int64 // frames sent in the window

	spanSeq atomic.Uint64

	peak     atomic.Int64
	stopPeak chan struct{}
	peakDone sync.WaitGroup

	sessions sync.Map                // uint32 → *sessTrace: live traced sessions
	stamps   [stampShards]stampShard // in-flight frames by Seq

	// mu guards the rest; it is taken once per session or sampled frame.
	mu       sync.Mutex
	byInput  map[*wire.Bit]uint32 // a transmitter's private input → its session
	spawn    []uint32             // sessions in first-handout order toward the receiver: the server's spawn order
	frames   []wire.Frame         // sampled frames for the wire microbenchmark
	spans    []span
	dropped  int // spans past maxSpans
	unmapped int // receiver pairs built for no traced session
	skipped  int // counted sessions whose inbox overflowed, so FIFO matching is void
	// Totals over counted sessions.
	txSends, writes, overflow int64
}

type stampShard struct {
	mu sync.Mutex
	m  map[int64]sendStamp
}

type sendStamp struct {
	ns, tick int64
	window   bool // sent inside the measured window
}

// span is one timed interval at a layer boundary. Spans of one session
// share its ID as trace ID; every span's parent is the session span.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Trace    uint32 `json:"trace"`
	ID       uint64 `json:"span"`
	Parent   uint64 `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// sessTrace is the tracer's record of one live session.
type sessTrace struct {
	id    uint32
	root  uint64 // span ID of the session span
	keep  bool   // spans are kept for this session
	start int64
	key   *wire.Bit

	mu     sync.Mutex
	queue  [2][]int64 // handout times awaiting Classify, FIFO per direction
	tx, rx *tracedAuto
	spans  []span // pair-build and transport spans
}

// dirIndex maps a direction onto sessTrace.queue.
func dirIndex(d wire.Dir) int {
	if d == wire.RtoT {
		return 1
	}
	return 0
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), byInput: make(map[*wire.Bit]uint32)}
	for i := range t.stamps {
		t.stamps[i].m = make(map[int64]sendStamp)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) session(id uint32) *sessTrace {
	if v, ok := t.sessions.Load(id); ok {
		return v.(*sessTrace)
	}
	return nil
}

// startWindow turns event recording on and starts sampling the goroutine
// count; stopWindow turns both off and waits for the sampler.
func (t *tracer) startWindow() {
	t.measuring.Store(true)
	t.stopPeak = make(chan struct{})
	t.peakDone.Add(1)
	go func() {
		defer t.peakDone.Done()
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > t.peak.Load() {
				t.peak.Store(n)
			}
			select {
			case <-t.stopPeak:
				return
			case <-tk.C:
			}
		}
	}()
}

func (t *tracer) stopWindow() {
	t.measuring.Store(false)
	close(t.stopPeak)
	t.peakDone.Wait()
}

// beginSession registers session id before its transfer starts and
// returns a private copy of its input: the pair builder recognises the
// transmitter's construction by that copy's address.
func (t *tracer) beginSession(id uint32, x []wire.Bit) []wire.Bit {
	x = append([]wire.Bit(nil), x...)
	s := &sessTrace{id: id, root: t.spanSeq.Add(1), keep: id%spanEvery == 0, start: t.now(), key: &x[0]}
	t.mu.Lock()
	t.byInput[s.key] = id
	t.mu.Unlock()
	t.sessions.Store(id, s)
	return x
}

// endSession retires session id once its Transfer has returned. Both
// endpoints' loops have exited by then (Transfer waits for them), so the
// automata's fields are safe to read.
func (t *tracer) endSession(id uint32, end time.Time, res session.TransferResult, counted bool) {
	v, ok := t.sessions.LoadAndDelete(id)
	if !ok {
		return
	}
	s := v.(*sessTrace)
	s.mu.Lock()
	tx, rx, net := s.tx, s.rx, s.spans
	s.mu.Unlock()
	if !res.RX.Finished {
		rx = nil // the receiver may still be running: leave it alone
	}
	endNs := int64(end.Sub(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byInput, s.key)
	if !counted {
		return
	}
	t.txSends += int64(res.TX.Sends)
	t.writes += int64(res.RX.Writes)
	over := res.TX.Overflow + res.RX.Overflow
	t.overflow += int64(over)
	if over > 0 {
		t.skipped++
	}
	for _, a := range []*tracedAuto{tx, rx} {
		if a != nil && over == 0 {
			for _, w := range a.inbox {
				t.inbox.record(w)
			}
		}
	}
	if rx != nil && rx.firstWrite > 0 {
		t.firstWrite.record(rx.firstWrite - s.start)
		t.teardown.record(endNs - rx.lastWrite)
	}
	if !s.keep {
		return
	}
	t.keepSpan(span{Name: "session", Trace: id, ID: s.root, Start: s.start, End: endNs})
	for _, sp := range net {
		t.keepSpan(sp)
	}
	for _, a := range []*tracedAuto{tx, rx} {
		if a != nil {
			for _, sp := range a.spans {
				t.keepSpan(sp)
			}
		}
	}
}

// keepSpan stores a finished span under the memory cap. Callers hold t.mu.
func (t *tracer) keepSpan(sp span) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, sp)
}

func (s *sessTrace) newSpan(t *tracer, name string, start, end int64) span {
	return span{Name: name, Trace: s.id, ID: t.spanSeq.Add(1), Parent: s.root, Start: start, End: end}
}

// addSpan records a span the session's automata do not own.
func (s *sessTrace) addSpan(t *tracer, name string, start, end int64) {
	s.mu.Lock()
	s.spans = append(s.spans, s.newSpan(t, name, start, end))
	s.mu.Unlock()
}

// writeSpans appends the pass's spans to w as JSON lines.
func (t *tracer) writeSpans(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		sp.Workload = workload
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// tracedTransport is the transport decorator.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
	out   map[wire.Dir]chan wire.Frame
	seen  map[uint32]bool // sessions already handed out toward the receiver; TtoR forwarder only
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// wrapTransport decorates inner. The forwarding channels get the same
// capacity as the inner transport's, so buffering is unchanged.
func (t *tracer) wrapTransport(inner transport.Transport, clock *transport.Clock, udp bool) transport.Transport {
	t.clock = clock
	buf := memBuffer
	if udp {
		buf = udpBuffer
	}
	tt := &tracedTransport{
		inner: inner,
		t:     t,
		out: map[wire.Dir]chan wire.Frame{
			wire.TtoR: make(chan wire.Frame, buf),
			wire.RtoT: make(chan wire.Frame, buf),
		},
		seen: make(map[uint32]bool),
		done: make(chan struct{}),
	}
	for dir := range tt.out {
		tt.wg.Add(1)
		go tt.forward(dir)
	}
	return tt
}

func (tt *tracedTransport) Name() string { return "traced(" + tt.inner.Name() + ")" }

func (tt *tracedTransport) Deliveries(dir wire.Dir) <-chan wire.Frame { return tt.out[dir] }

// Send stamps the frame before handing it on, so a zero-delay delivery
// can never be handed out before its stamp exists.
func (tt *tracedTransport) Send(f wire.Frame) error {
	t := tt.t
	start, tick := t.now(), t.clock.Now()
	window := t.measuring.Load()
	sh := &t.stamps[uint64(f.Seq)%stampShards]
	sh.mu.Lock()
	sh.m[f.Seq] = sendStamp{ns: start, tick: tick, window: window}
	sh.mu.Unlock()
	if window && t.windowSends.Add(1)%sampleEvery == 0 {
		t.mu.Lock()
		if len(t.frames) < maxFrames {
			t.frames = append(t.frames, f)
		}
		t.mu.Unlock()
	}
	err := tt.inner.Send(f)
	end := t.now()
	if window {
		t.sendNs.record(end - start)
	}
	if s := t.session(f.Session); s != nil && s.keep {
		s.addSpan(t, "transport.send", start, end)
	}
	return err
}

// Close stops the forwarders, then closes the inner transport and waits
// for the forwarders to exit.
func (tt *tracedTransport) Close() error {
	tt.once.Do(func() { close(tt.done) })
	err := tt.inner.Close()
	tt.wg.Wait()
	return err
}

// forward hands frames of one direction from the inner transport to the
// session layer, stamping each handout.
func (tt *tracedTransport) forward(dir wire.Dir) {
	defer tt.wg.Done()
	out := tt.out[dir]
	defer close(out)
	for f := range tt.inner.Deliveries(dir) {
		tt.handout(f)
		select {
		case out <- f:
		case <-tt.done:
			return
		}
	}
}

// handout records one frame leaving the transport: its channel delay,
// its place in its session's inbox FIFO and, for the first frame of a
// session toward the receiver, the server's coming pair construction.
func (tt *tracedTransport) handout(f wire.Frame) {
	t := tt.t
	now, tick := t.now(), t.clock.Now()
	sh := &t.stamps[uint64(f.Seq)%stampShards]
	sh.mu.Lock()
	st, stamped := sh.m[f.Seq]
	delete(sh.m, f.Seq)
	sh.mu.Unlock()
	if stamped && st.window {
		t.windowHandouts.Add(1)
		t.delay.record(now - st.ns)
		if tick-st.tick > params.D {
			t.lateHandouts.Add(1)
		}
	}
	if f.Dir == wire.TtoR && !tt.seen[f.Session] {
		tt.seen[f.Session] = true
		t.mu.Lock()
		t.spawn = append(t.spawn, f.Session)
		t.mu.Unlock()
	}
	s := t.session(f.Session)
	if s == nil {
		return
	}
	i := dirIndex(f.Dir)
	s.mu.Lock()
	s.queue[i] = append(s.queue[i], now)
	if stamped && s.keep {
		s.spans = append(s.spans, s.newSpan(t, "transport.channel", st.ns, now))
	}
	s.mu.Unlock()
}

// tracedBuilder is the pair-builder decorator.
type tracedBuilder struct {
	inner session.PairBuilder
	t     *tracer
}

func (t *tracer) wrapBuilder(inner session.PairBuilder, block int) session.PairBuilder {
	t.block = block
	return &tracedBuilder{inner: inner, t: t}
}

func (b *tracedBuilder) String() string { return b.inner.String() }

// NewPair times the inner construction and wraps the half the caller
// will drive. The dialer builds with the session's input, which the
// tracer recognises by address; the server builds with none, on the
// first frame of each new session, so its constructions follow the order
// in which sessions' first frames were handed toward it.
func (b *tracedBuilder) NewPair(x []wire.Bit) (ioa.Automaton, ioa.Automaton, error) {
	t := b.t
	start := t.now()
	tx, rx, err := b.inner.NewPair(x)
	end := t.now()
	if err != nil {
		return tx, rx, err
	}
	var s *sessTrace
	t.mu.Lock()
	if len(x) > 0 {
		if id, ok := t.byInput[&x[0]]; ok {
			s = t.session(id)
		}
	} else if len(t.spawn) > 0 {
		s = t.session(t.spawn[0])
		t.spawn = t.spawn[1:]
	}
	if s == nil && len(x) == 0 {
		t.unmapped++
	}
	t.mu.Unlock()
	if s == nil {
		return tx, rx, nil
	}
	if t.measuring.Load() {
		t.pairBuild.record(end - start)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keep {
		s.spans = append(s.spans, s.newSpan(t, "proto.pair_build", start, end))
	}
	if len(x) > 0 {
		s.tx = &tracedAuto{inner: tx, t: t, s: s, in: wire.RtoT}
		return s.tx, rx, nil
	}
	s.rx = &tracedAuto{inner: rx, t: t, s: s, in: wire.TtoR}
	return tx, s.rx, nil
}

// tracedAuto is the automaton decorator. Its fields are owned by the
// endpoint loop that drives the automaton, as the automaton's are.
type tracedAuto struct {
	inner ioa.Automaton
	t     *tracer
	s     *sessTrace
	in    wire.Dir // direction of the frames this automaton receives

	lastNs, lastTick      int64 // previous NextLocal
	stepStart, recvStart  int64
	local, input          bool // the next Apply finishes a local step / an input
	inbox                 []int64
	firstWrite, lastWrite int64
	spans                 []span
}

func (a *tracedAuto) Name() string { return a.inner.Name() }

// Classify is the session layer's first touch of a delivered frame: the
// wait since the frame's handout ends here, matched in FIFO order.
func (a *tracedAuto) Classify(act ioa.Action) ioa.Class {
	now := a.t.now()
	s := a.s
	i := dirIndex(a.in)
	s.mu.Lock()
	if q := s.queue[i]; len(q) > 0 {
		a.inbox = append(a.inbox, now-q[0])
		if s.keep {
			a.spans = append(a.spans, s.newSpan(a.t, "session.inbox_wait", q[0], now))
		}
		s.queue[i] = q[1:]
	}
	s.mu.Unlock()
	c := a.inner.Classify(act)
	a.input, a.recvStart = c == ioa.ClassInput, now
	return c
}

// NextLocal starts a local step. The gap since the previous step is read
// twice: in nanoseconds for its distribution, and in clock ticks for the
// Σ axiom, which the paper states in ticks.
func (a *tracedAuto) NextLocal() (ioa.Action, bool) {
	t := a.t
	now, tick := t.now(), t.clock.Now()
	if a.lastNs != 0 && t.measuring.Load() {
		t.stepGap.record(now - a.lastNs)
		t.stepGaps.Add(1)
		if tick-a.lastTick > params.C2 {
			t.stepLate.Add(1)
		}
	}
	a.lastNs, a.lastTick = now, tick
	act, ok := a.inner.NextLocal()
	a.local, a.stepStart = ok, now
	return act, ok
}

func (a *tracedAuto) Apply(act ioa.Action) error {
	err := a.inner.Apply(act)
	t := a.t
	end := t.now()
	switch {
	case a.local:
		a.local = false
		if t.measuring.Load() {
			t.stepNs.record(end - a.stepStart)
		}
		if _, ok := act.(wire.Write); ok && err == nil {
			if a.firstWrite == 0 {
				a.firstWrite = end
			}
			a.lastWrite = end
		}
		if a.s.keep {
			a.spans = append(a.spans, a.s.newSpan(t, "proto.step", a.stepStart, end))
		}
	case a.input:
		a.input = false
		if t.measuring.Load() {
			t.recvNs.record(end - a.recvStart)
		}
		if a.s.keep {
			a.spans = append(a.spans, a.s.newSpan(t, "proto.recv", a.recvStart, end))
		}
	}
	return err
}

// perLayer returns the per-layer metrics of a traced pass, in the order
// BENCHMARK.json lists them. writes is the pass's window write count.
func (t *tracer) perLayer(writes int64, m micro, rt runtimeStats, overhead float64) []metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := float64(tick)
	blocks := float64(t.writes) / float64(t.block)
	return []metric{
		{"session.step_gap_p50_ticks", t.stepGap.quantile(0.50) / tk, "ticks"},
		{"session.step_gap_p99_ticks", t.stepGap.quantile(0.99) / tk, "ticks"},
		{"session.step_late_ratio", ratio(float64(t.stepLate.Load()), float64(t.stepGaps.Load())), "ratio"},
		{"session.inbox_wait_p50_ticks", t.inbox.quantile(0.50) / tk, "ticks"},
		{"session.inbox_wait_p99_ticks", t.inbox.quantile(0.99) / tk, "ticks"},
		{"session.first_write_ms_p50", t.firstWrite.quantile(0.50) / 1e6, "ms"},
		{"session.teardown_us_p50", t.teardown.quantile(0.50) / 1e3, "us"},
		{"session.teardown_us_p99", t.teardown.quantile(0.99) / 1e3, "us"},
		{"session.goroutines_peak", float64(t.peak.Load()), "count"},
		{"session.overflow_per_msg", ratio(float64(t.overflow), float64(t.writes)), "frames/msg"},
		{"transport.send_ns_p50", t.sendNs.quantile(0.50), "ns"},
		{"transport.send_ns_p99", t.sendNs.quantile(0.99), "ns"},
		{"transport.frames_per_msg", ratio(float64(t.windowSends.Load()), float64(writes)), "frames/msg"},
		{"transport.delay_p50_ticks", t.delay.quantile(0.50) / tk, "ticks"},
		{"transport.delay_p99_ticks", t.delay.quantile(0.99) / tk, "ticks"},
		{"transport.late_ratio", ratio(float64(t.lateHandouts.Load()), float64(t.windowHandouts.Load())), "ratio"},
		{"transport.loss_ratio", 1 - ratio(float64(t.windowHandouts.Load()), float64(t.windowSends.Load())), "ratio"},
		{"proto.pair_build_us_p50", t.pairBuild.quantile(0.50) / 1e3, "us"},
		{"proto.step_ns_p50", t.stepNs.quantile(0.50), "ns"},
		{"proto.step_ns_p99", t.stepNs.quantile(0.99), "ns"},
		{"proto.recv_ns_p50", t.recvNs.quantile(0.50), "ns"},
		{"proto.recv_ns_p99", t.recvNs.quantile(0.99), "ns"},
		{"proto.sends_per_block", ratio(float64(t.txSends), blocks), "sends/block"},
		{"wire.encode_ns", m.encodeNs, "ns"},
		{"wire.parse_ns", m.parseNs, "ns"},
		{"wire.allocs_per_frame", m.allocsPerFrame, "allocs/frame"},
		{"multiset.encode_ns", m.msEncodeNs, "ns"},
		{"multiset.decode_ns", m.msDecodeNs, "ns"},
		{"obs.observe_ns", m.observeNs, "ns"},
		{"runtime.gc_cpu_ratio", rt.gcRatio, "ratio"},
		{"runtime.sched_latency_p99_us", rt.schedP99us, "us"},
		{"trace_overhead", overhead, "ratio"},
	}
}

// traceContext returns the traced pass's sample counts and validity
// diagnostics.
func (t *tracer) traceContext() []metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	return []metric{
		{"trace.step_samples", float64(t.stepGaps.Load()), "count"},
		{"trace.inbox_samples", float64(t.inbox.count()), "count"},
		{"trace.frames_sent", float64(t.windowSends.Load()), "count"},
		{"trace.inbox_sessions_skipped", float64(t.skipped), "count"},
		{"trace.unmapped_receivers", float64(t.unmapped), "count"},
		{"trace.spans_kept", float64(len(t.spans)), "count"},
		{"trace.spans_dropped", float64(t.dropped), "count"},
	}
}
