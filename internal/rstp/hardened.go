package rstp

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/wire"
)

// The hardened layer: a reliability shim that lets any of the paper's
// three solutions survive a channel that has left the Δ(C(P)) model.
//
// The paper's protocols are correct because the model promises in-order,
// exactly-once, within-d delivery. Under faults (drops, duplicates,
// delay beyond d, corruption) those promises break — but all three inner
// protocols remain correct under the weaker promise "each process's
// incoming packets arrive in send order, exactly once, eventually":
// A^α writes arrivals in order, A^β(k) delimits bursts by packet count
// (δ1 per burst, see BetaReceiver.onInput), and A^γ(k) is clocked by its
// own acknowledgements. The shim restores exactly that promise with the
// classic machinery the paper deliberately excludes from its model:
// per-packet sequence numbers, a 4-bit checksum, cumulative
// acknowledgements, and retransmission with bounded exponential backoff.
//
// Both endpoints get the same hardEnd wrapper, each playing a sender
// role for its inner automaton's outgoing packets and a receiver role
// for incoming ones. The wrapper keeps the inner automaton's name
// ("t"/"r"), so traces, validators and StopAfterWrites see the usual
// actors.
//
// Guarantee split (and its limits): safety — Y is a prefix of X at every
// point — holds under ANY fault plan, because the inner automata only
// ever see a checksum-clean, deduplicated, in-order stream. Liveness —
// Y = X eventually — additionally needs the faults to stop (every
// faults.Fault window closes) so that retransmission can win; a channel
// that drops everything forever defeats any protocol.

// Tag layout of packets on a hardened channel: bit 0 distinguishes layer
// control (cumulative ack) from wrapped inner payload, bits 1-4 carry a
// 4-bit checksum, bits 5+ carry the sequence number (payload) or the
// cumulative ack value (control).
const (
	hardCtrlBit  = 1
	hardCkShift  = 1
	hardCkMask   = 0xF
	hardSeqShift = 5
)

// hardChecksum hashes the header fields plus the (unwrapped) packet into
// 4 bits. The symbol multiplier 31 ≡ -1 (mod 16) makes every symbol
// offset that is nonzero mod 16 flip the checksum — the fault injector's
// corruption (faults.Fault.Corrupt) is exactly that class, so detection
// is deterministic rather than w.h.p.
func hardChecksum(val int64, p wire.Packet, dir wire.Dir, ctrl bool) int {
	h := val*1000003 + int64(p.Symbol)*31 + int64(p.Kind)*17 + int64(dir)*7
	if ctrl {
		h += 13
	}
	return int(((h % 16) + 16) % 16)
}

// hardWrap seals an inner packet with a sequence number and checksum.
func hardWrap(seq int64, inner wire.Packet, dir wire.Dir) wire.Packet {
	ck := hardChecksum(seq, inner, dir, false)
	return wire.Packet{
		Kind:   inner.Kind,
		Symbol: inner.Symbol,
		Tag:    int(seq<<hardSeqShift) | ck<<hardCkShift,
	}
}

// hardAckPacket builds the layer's cumulative-ack control packet: "I have
// delivered every payload below cum to my inner automaton".
func hardAckPacket(cum int64, dir wire.Dir) wire.Packet {
	p := wire.Packet{Kind: wire.Ack}
	ck := hardChecksum(cum, p, dir, true)
	p.Tag = int(cum<<hardSeqShift) | ck<<hardCkShift | hardCtrlBit
	return p
}

// hardDecode splits a received packet into its header and verifies the
// checksum; ok == false means the packet is damaged and must be dropped.
func hardDecode(p wire.Packet, dir wire.Dir) (val int64, ctrl bool, ok bool) {
	ctrl = p.Tag&hardCtrlBit != 0
	ck := (p.Tag >> hardCkShift) & hardCkMask
	val = int64(p.Tag) >> hardSeqShift
	base := p
	base.Tag = 0
	return val, ctrl, val >= 0 && hardChecksum(val, base, dir, ctrl) == ck
}

// HardenOptions configure the reliability layer's hooks. Its timing
// comes from the solution's Params (see newHardEnd).
type HardenOptions struct {
	// Observer receives the layer's protocol events (retransmits,
	// checksum rejects, stale drops). Shared across every endpoint built
	// from these options, so implementations must be concurrency-safe.
	// nil disables the hooks.
	Observer LayerObserver
}

// hardBackoffCap bounds the exponential backoff: the timeout for attempt
// n is roundTripSteps·2^min(n, 4) (≤ 16× base), so the layer probes a
// healed channel within a bounded delay instead of backing off forever.
const hardBackoffCap = 4

// roundTripSteps is both robustness layers' base retransmission timeout
// in local steps, ⌈(δ1·c2 + d)/c1⌉ + 2: a full burst at the slowest legal
// schedule plus one maximum channel delay, converted to steps at the
// fastest schedule, so a healthy channel never triggers a spurious
// retransmit.
func roundTripSteps(p Params) int64 {
	rtt := int64(p.Delta1())*p.C2 + p.D
	return (rtt+p.C1-1)/p.C1 + 2
}

// hardOut is one unacknowledged payload send awaiting its cumulative ack.
type hardOut struct {
	seq      int64
	act      ioa.Action // the boxed send, reused by every retransmission
	lastSent int64      // in local steps
	attempt  int
}

// hardEnd wraps one endpoint's inner automaton with the reliability
// layer. outDir is the direction the inner automaton sends on; inDir is
// the direction it receives on.
type hardEnd struct {
	inner         ioa.Automaton
	outDir, inDir wire.Dir
	window        int
	rtoBase       int64

	// Sender role: sequence numbers and the retransmission queue for the
	// inner automaton's outgoing packets.
	nextSeq     int64
	outstanding []hardOut
	steps       int64 // local step counter — the layer's proxy clock

	// Receiver role: in-order exactly-once reassembly of incoming
	// payloads, plus the coalesced cumulative ack. buffer holds the
	// payloads that arrived ahead of expected; it is made on the first
	// such arrival, so an in-order channel never allocates it.
	expected   int64
	buffer     map[int64]wire.Packet
	ackPending bool
	lastWasAck bool // fairness gate: never two acks back to back

	// Diagnostics.
	rejected int // checksum failures dropped
	stale    int // duplicate/old payloads discarded

	obs LayerObserver // nil disables the event hooks
}

var _ ioa.Automaton = (*hardEnd)(nil)

// newHardEnd wraps inner with timing derived from p. The window caps
// outstanding unacknowledged payload packets per direction at 4·δ1 + 4,
// four bursts of headroom; the wrapper stalls its inner automaton's sends
// (with internal idle steps, keeping the step clock legal) while full.
func newHardEnd(inner ioa.Automaton, outDir, inDir wire.Dir, p Params, obs LayerObserver) *hardEnd {
	return &hardEnd{
		inner:   inner,
		outDir:  outDir,
		inDir:   inDir,
		window:  4*p.Delta1() + 4,
		rtoBase: roundTripSteps(p),
		obs:     obs,
	}
}

// rto returns the timeout for the given attempt with capped exponential
// backoff.
func (h *hardEnd) rto(attempt int) int64 {
	if attempt > hardBackoffCap {
		attempt = hardBackoffCap
	}
	return h.rtoBase << attempt
}

// Name keeps the inner automaton's actor name so traces and validators
// are oblivious to the layer.
func (h *hardEnd) Name() string { return h.inner.Name() }

// Classify places layer traffic first, then defers to the inner
// signature. Crucially every Recv on inDir is an input regardless of
// content — the layer, not the signature, rejects damaged packets, which
// is what keeps a corrupted symbol from crashing the run the way it does
// an unhardened A^β/A^γ receiver.
func (h *hardEnd) Classify(act ioa.Action) ioa.Class {
	switch a := act.(type) {
	case wire.Recv:
		if a.Dir == h.inDir {
			return ioa.ClassInput
		}
	case wire.Send:
		if a.Dir == h.outDir {
			return ioa.ClassOutput
		}
	case wire.Internal:
		if a.Name == "idle_h" {
			return ioa.ClassInternal
		}
	}
	return h.inner.Classify(act)
}

// NextLocal picks the layer's next action. Priority: (1) the coalesced
// ack, fairness-gated so it cannot starve payload; (2) a due
// retransmission of the oldest outstanding packet; (3) the inner
// automaton's own action — sends wrapped and window-gated, everything
// else forwarded verbatim; (4) the ack when there is nothing else;
// (5) an internal idle step to keep the retransmission clock ticking.
func (h *hardEnd) NextLocal() (ioa.Action, bool) {
	if h.ackPending && !h.lastWasAck {
		return h.ackAction(), true
	}
	if len(h.outstanding) > 0 {
		o := h.outstanding[0]
		if h.steps-o.lastSent >= h.rto(o.attempt) {
			return o.act, true
		}
	}
	if act, ok := h.inner.NextLocal(); ok {
		if s, isSend := act.(wire.Send); isSend && s.Dir == h.outDir {
			if len(h.outstanding) < h.window {
				return tagged.send(h.outDir, hardWrap(h.nextSeq, s.P, h.outDir)), true
			}
			return actIdleH, true
		}
		return act, true
	}
	if h.ackPending {
		return h.ackAction(), true
	}
	if len(h.outstanding) > 0 {
		return actIdleH, true
	}
	return nil, false
}

// ackAction returns the coalesced ack for the current expected value,
// boxed once per process by the tagged-action intern.
func (h *hardEnd) ackAction() ioa.Action {
	return tagged.send(h.outDir, hardAckPacket(h.expected, h.outDir))
}

// Apply performs one transition: inputs go through the layer's receive
// path, layer sends through the send path, and the inner automaton's own
// actions are forwarded verbatim.
func (h *hardEnd) Apply(act ioa.Action) error {
	if recv, ok := act.(wire.Recv); ok && recv.Dir == h.inDir {
		return h.onRecv(recv.P)
	}
	switch a := act.(type) {
	case wire.Internal:
		if a.Name == "idle_h" {
			h.steps++
			h.lastWasAck = false
			return nil
		}
	case wire.Send:
		if a.Dir == h.outDir {
			return h.onLocalSend(a, act)
		}
	}
	h.steps++
	h.lastWasAck = false
	return h.inner.Apply(act)
}

// onLocalSend commits one of the layer's own send actions; act is s
// boxed, kept for retransmission.
func (h *hardEnd) onLocalSend(s wire.Send, act ioa.Action) error {
	h.steps++
	val, ctrl, ok := hardDecode(s.P, h.outDir)
	if !ok {
		return fmt.Errorf("rstp: hardened %s: malformed local send %v: %w", h.inner.Name(), s, ioa.ErrNotEnabled)
	}
	if ctrl {
		h.lastWasAck = true
		h.ackPending = false
		return nil
	}
	h.lastWasAck = false
	if val < h.nextSeq {
		// Retransmission: rearm the timer with one more backoff doubling.
		for i := range h.outstanding {
			if h.outstanding[i].seq == val {
				h.outstanding[i].lastSent = h.steps
				h.outstanding[i].attempt++
				emit(h.obs, LayerRetransmit)
				return nil
			}
		}
		return nil
	}
	// Fresh payload: the inner automaton's pending send becomes real now.
	// NextLocal is pure, so re-asking yields the same action we wrapped.
	inner, ok := h.inner.NextLocal()
	if !ok {
		return fmt.Errorf("rstp: hardened %s: inner send vanished: %w", h.inner.Name(), ioa.ErrNotEnabled)
	}
	if err := h.inner.Apply(inner); err != nil {
		return err
	}
	h.outstanding = append(h.outstanding, hardOut{seq: val, act: act, lastSent: h.steps})
	h.nextSeq = val + 1
	return nil
}

// onRecv is the layer's receive path: checksum gate, then either the ack
// ledger (control) or in-order exactly-once reassembly (payload).
func (h *hardEnd) onRecv(p wire.Packet) error {
	val, ctrl, ok := hardDecode(p, h.inDir)
	if !ok {
		h.rejected++
		emit(h.obs, LayerChecksumReject)
		return nil
	}
	if ctrl {
		acked := 0
		for acked < len(h.outstanding) && h.outstanding[acked].seq < val {
			acked++
		}
		// Shift the survivors down instead of reslicing past the acked
		// head, so the queue keeps its backing array and a send appends
		// without allocating.
		kept := copy(h.outstanding, h.outstanding[acked:])
		clear(h.outstanding[kept:])
		h.outstanding = h.outstanding[:kept]
		return nil
	}
	// Every payload arrival re-arms the ack — a duplicate usually means
	// the previous ack was lost.
	h.ackPending = true
	if val < h.expected {
		h.stale++
		emit(h.obs, LayerStaleDrop)
		return nil
	}
	unwrapped := p
	unwrapped.Tag = 0
	if val != h.expected {
		if h.buffer == nil {
			h.buffer = make(map[int64]wire.Packet)
		}
		h.buffer[val] = unwrapped
		return nil
	}
	// In-order head: deliver it and any buffered successors.
	for {
		if err := h.inner.Apply(RecvAction(h.inDir, unwrapped, "")); err != nil {
			return fmt.Errorf("rstp: hardened %s: inner rejected payload #%d: %w", h.inner.Name(), h.expected, err)
		}
		h.expected++
		next, buffered := h.buffer[h.expected]
		if !buffered {
			return nil
		}
		delete(h.buffer, h.expected)
		unwrapped = next
	}
}

// HardenedSolution is a Solution wrapped in the reliability layer at both
// endpoints.
type HardenedSolution struct {
	// Inner is the protocol being protected.
	Inner Solution
	// Opts are the layer's hooks.
	Opts HardenOptions
}

// Harden wraps a solution in the reliability layer.
func Harden(s Solution, opts HardenOptions) HardenedSolution {
	return HardenedSolution{Inner: s, Opts: opts}
}

// String renders e.g. "hardened(beta(k=4))".
func (hs HardenedSolution) String() string { return "hardened(" + hs.Inner.String() + ")" }

// NewPair constructs the wrapped transmitter and receiver for input x.
func (hs HardenedSolution) NewPair(x []wire.Bit) (t, r ioa.Automaton, err error) {
	it, ir, err := hs.Inner.NewPair(x)
	if err != nil {
		return nil, nil, err
	}
	p, obs := hs.Inner.Params, hs.Opts.Observer
	return newHardEnd(it, wire.TtoR, wire.RtoT, p, obs), newHardEnd(ir, wire.RtoT, wire.TtoR, p, obs), nil
}

// Run executes the hardened solution on input x until all |x| messages
// are written (or the run's caps fire — under a fault plan that never
// heals, liveness is forfeit and the caller inspects the partial run).
func (hs HardenedSolution) Run(x []wire.Bit, opt RunOptions) (*sim.Run, error) {
	return simulate(hs, hs.Inner.Params, x, opt)
}

// VerifySafety checks the fault-tolerant guarantee: Y is a prefix of X at
// every point of the trace. It does not require completion — under an
// unhealed fault plan a safe run may be cut short.
func (hs HardenedSolution) VerifySafety(run *sim.Run, x []wire.Bit) []timed.Violation {
	return timed.PrefixInvariant(run.Trace, x, false)
}

// VerifyComplete checks safety plus the liveness outcome Y = X — the
// guarantee once every fault window has closed.
func (hs HardenedSolution) VerifyComplete(run *sim.Run, x []wire.Bit) []timed.Violation {
	return timed.PrefixInvariant(run.Trace, x, true)
}

// Verify checks the full good(A) conditions plus Y = X. Only fault-free
// runs can pass: the layer changes nothing the validators see when the
// channel honours the model, so a hardened run on a healthy channel is
// held to the same standard as an unhardened one.
func (hs HardenedSolution) Verify(run *sim.Run, x []wire.Bit) []timed.Violation {
	return verifyGood(hs.Inner.Params, run, x)
}
