// Package repro is the public API of the RSTP reproduction: the real-time
// sequence transmission protocols and effort bounds of Wang & Zuck,
// "Real-Time Sequence Transmission Problem" (Yale TR-856, 1991).
//
// The model: a transmitter must reliably communicate a binary sequence X
// to a receiver over a channel that may reorder packets but delivers each
// within d ticks, while both processes take local steps every c1..c2
// ticks. The effort of a solution is the worst-case average time per
// transmitted message.
//
// Three solutions are provided:
//
//   - Alpha: the simple r-passive protocol (one message per d-spaced
//     packet), effort ⌈d/c1⌉·c2;
//   - Beta(k): the r-passive burst protocol — blocks of ⌊log2 μ_k(δ1)⌋
//     bits ride as *multisets* of δ1 k-ary packets, immune to in-burst
//     reordering; effort ≤ 2δ1c2/⌊log2 μ_k(δ1)⌋, matching the Theorem 5.3
//     lower bound up to a constant;
//   - Gamma(k): the active (acknowledged) protocol; effort
//     ≤ (3d+c2)/⌊log2 μ_k(δ2)⌋, matching Theorem 5.6 up to a constant.
//
// Quickstart:
//
//	p := repro.Params{C1: 2, C2: 3, D: 12}
//	s, err := repro.Beta(p, 4)             // k = 4 packet symbols
//	x, _ := repro.ParseBits("101100111000")
//	x, _ = repro.PadToBlock(x, s.BlockBits)
//	run, err := s.Run(x, repro.RunOptions{}) // worst-case schedules
//	fmt.Println(repro.BitsToString(run.Writes())) // == input
//
// The implementation subsystems live under internal/: the timed I/O
// automata model (ioa, timed), the discrete-event engine (sim), the
// channel adversaries (chanmodel), the Section 3 multiset codec
// (multiset), the Section 5 lower-bound machinery (adversary), the
// classical baseline (stp), and the table generators reproducing the
// paper's results (experiments).
package repro

import (
	"time"

	"repro/internal/chanmodel"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rateless"
	"repro/internal/rstp"
	"repro/internal/rstpx"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Core model types, re-exported from the internal implementation. The
// aliases make the internal types usable by downstream importers.
type (
	// Params carries the RSTP timing constants c1 <= c2 < d, in ticks.
	Params = rstp.Params
	// Solution is one of the paper's protocol pairs At ∘ Ar.
	Solution = rstp.Solution
	// RunOptions selects the step schedules and channel adversary of a run.
	RunOptions = rstp.RunOptions
	// Effort is a measured effort data point (ticks per message).
	Effort = rstp.Effort
	// Run is one recorded timed execution.
	Run = sim.Run
	// Bit is a message from the binary domain M = {0, 1}.
	Bit = wire.Bit
	// Violation is one failed good(A) condition found by Verify.
	Violation = timed.Violation
	// StepPolicy schedules one process's local steps.
	StepPolicy = sim.StepPolicy
	// DelayPolicy is the channel's delivery adversary.
	DelayPolicy = chanmodel.DelayPolicy
)

// Alpha returns the simple r-passive solution A^α (Figure 1).
func Alpha(p Params) (Solution, error) { return rstp.Alpha(p) }

// Beta returns the r-passive burst solution A^β(k) (Figure 3).
func Beta(p Params, k int) (Solution, error) { return rstp.Beta(p, k) }

// Gamma returns the active solution A^γ(k) (Figure 4).
func Gamma(p Params, k int) (Solution, error) { return rstp.Gamma(p, k) }

// PadToBlock pads x with trailing zeros to a multiple of blockBits,
// returning the padded sequence and the number of bits added.
func PadToBlock(x []Bit, blockBits int) ([]Bit, int) { return rstp.PadToBlock(x, blockBits) }

// ParseBits parses a 0/1 string.
func ParseBits(s string) ([]Bit, error) { return wire.ParseBits(s) }

// BitsToString renders bits as a 0/1 string.
func BitsToString(bits []Bit) string { return wire.BitsToString(bits) }

// RandomBits returns n random bits drawn from next (e.g. rand.Uint64).
func RandomBits(n int, next func() uint64) []Bit { return wire.RandomBits(n, next) }

// Bound formulas (Sections 5 and 6), in ticks per message.

// AlphaEffort returns eff(A^α) = ⌈d/c1⌉·c2.
func AlphaEffort(p Params) float64 { return rstp.AlphaEffort(p) }

// PassiveLowerBound returns Theorem 5.3's floor for r-passive solutions.
func PassiveLowerBound(p Params, k int) float64 { return rstp.PassiveLowerBound(p, k) }

// ActiveLowerBound returns Theorem 5.6's floor for active solutions.
func ActiveLowerBound(p Params, k int) float64 { return rstp.ActiveLowerBound(p, k) }

// BetaUpperBound returns Lemma 6.1's ceiling for A^β(k).
func BetaUpperBound(p Params, k int) float64 { return rstp.BetaUpperBound(p, k) }

// GammaUpperBound returns Section 6.2's ceiling for A^γ(k).
func GammaUpperBound(p Params, k int) float64 { return rstp.GammaUpperBound(p, k) }

// Step schedules for RunOptions.

// FixedSchedule steps every c ticks.
func FixedSchedule(c int64) StepPolicy { return sim.FixedGap{C: c} }

// AlternatingSchedule alternates between the two gaps.
func AlternatingSchedule(c1, c2 int64) StepPolicy { return sim.AlternatingGap{C1: c1, C2: c2} }

// RandomSchedule draws each gap uniformly from [c1, c2] via int63n
// (typically (*rand.Rand).Int63n).
func RandomSchedule(c1, c2 int64, int63n func(int64) int64) StepPolicy {
	return sim.RandomGap{C1: c1, C2: c2, Int63n: int63n}
}

// Channel adversaries for RunOptions.

// ZeroDelay delivers instantly.
func ZeroDelay() DelayPolicy { return chanmodel.Zero{} }

// MaxDelay delays every packet by exactly d.
func MaxDelay(d int64) DelayPolicy { return chanmodel.MaxDelay{D: d} }

// RandomDelay delays each packet uniformly in [0, d].
func RandomDelay(d int64, rnd interface{ Int63n(int64) int64 }) DelayPolicy {
	return &randomDelay{d: d, rnd: rnd}
}

type randomDelay struct {
	d   int64
	rnd interface{ Int63n(int64) int64 }
	at  [1]int64 // Arrivals' result, reused per call
}

func (r *randomDelay) Name() string { return "uniform-random(public)" }

func (r *randomDelay) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	r.at[0] = sendTime + r.rnd.Int63n(r.d+1)
	return r.at[:]
}

// ReverseBurstDelay reverses each burst's arrival order while respecting
// the d bound — the adversary the multiset encoding is built to survive.
func ReverseBurstDelay(d int64, burst int, stepGap int64) DelayPolicy {
	return chanmodel.ReverseBurst{D: d, Burst: burst, StepGap: stepGap}
}

// IntervalBatchDelay is the Figure 2 adversary: all packets sent in one
// (d-1)-tick interval are delivered together at the next boundary.
func IntervalBatchDelay(d int64) DelayPolicy { return chanmodel.IntervalBatch{D: d} }

// Application framing: self-delimiting byte messages over the bit
// protocols, tolerant of block padding (see internal/frame).

// FrameDecoder incrementally parses a framed bit stream back into byte
// payloads.
type FrameDecoder = frame.Decoder

// FrameMessages frames byte payloads into one bit stream; pad the result
// with PadToBlock and transmit it with any solution.
func FrameMessages(payloads [][]byte) ([]Bit, error) { return frame.EncodeStream(payloads) }

// UnframeMessages parses a complete framed bit stream (trailing padding
// tolerated) back into payloads.
func UnframeMessages(bits []Bit) ([][]byte, error) { return frame.DecodeStream(bits) }

// Robustness outside the model: seeded fault injection, the runtime
// degradation watchdog, and the hardened protocol wrapper (safety under
// any fault plan, liveness once the faults heal — see internal/rstp's
// hardened layer and internal/faults).
type (
	// Fault is one time-windowed fault clause: blackout, drop,
	// duplication, corruption or excess delay over [From, To) send ticks.
	Fault = faults.Fault
	// FaultPlan is a seeded, reproducible fault schedule wrapped around
	// any DelayPolicy; pass it as RunOptions.Delay.
	FaultPlan = faults.Plan
	// HardenedSolution is a Solution wrapped in the reliability layer
	// (sequence numbers, checksum, cumulative acks, retransmission).
	HardenedSolution = rstp.HardenedSolution
	// HardenOptions tune the reliability layer (zero values take
	// parameter-derived defaults).
	HardenOptions = rstp.HardenOptions
	// Degradation is a run's channel-health report, populated on
	// Run.Degradation whenever the run has a delay bound d.
	Degradation = sim.Degradation
)

// NewFaultPlan wraps a delay policy with seeded, time-windowed faults.
func NewFaultPlan(seed int64, inner DelayPolicy, fs ...Fault) *FaultPlan {
	return faults.NewPlan(seed, inner, fs...)
}

// Harden wraps a solution in the reliability layer: Y stays a prefix of X
// under any fault plan, and Y = X once every fault window closes.
func Harden(s Solution, opts HardenOptions) HardenedSolution { return rstp.Harden(s, opts) }

// Process fault tolerance: crash/restart injection, state corruption, and
// the self-stabilizing recovery layer (see internal/sim's process-fault
// engine, internal/faults' ProcPlan and internal/rstp's stabilized layer).
type (
	// ProcFault is one process-fault clause: crash (with or without a
	// restart), checkpoint or live state corruption, or a step-rate
	// violation window.
	ProcFault = faults.ProcFault
	// ProcPlan is a seeded, reproducible process-fault schedule; pass it
	// as RunOptions.ProcFaults.
	ProcPlan = faults.ProcPlan
	// ProcID targets a fault clause at the transmitter or the receiver.
	ProcID = sim.ProcID
	// Stabilization is a run's process-fault report — what the plan did
	// and how quickly the system converged after the last fault healed —
	// populated on Run.Stabilization whenever a ProcPlan is scheduled.
	Stabilization = sim.Stabilization
	// StabilizedSolution is a protocol stack wrapped in the stabilizing
	// recovery layer at both endpoints (epoch-tagged sessions, checksummed
	// checkpoints, resynchronization handshake).
	StabilizedSolution = rstp.StabilizedSolution
	// StabilizeOptions tune the stabilizing layer (zero values take
	// parameter-derived defaults).
	StabilizeOptions = rstp.StabilizeOptions
	// StateStore persists wrapper checkpoints across process crashes.
	StateStore = rstp.StateStore
	// MemStore is the canonical in-memory StateStore.
	MemStore = rstp.MemStore
)

// The two fault-targetable processes.
const (
	ProcTransmitter = sim.ProcTransmitter
	ProcReceiver    = sim.ProcReceiver
)

// NewProcPlan builds a seeded process-fault schedule from clauses; pass
// it as RunOptions.ProcFaults.
func NewProcPlan(seed int64, clauses ...ProcFault) *ProcPlan {
	return faults.NewProcPlan(seed, clauses...)
}

// NewMemStore returns an empty in-memory StateStore (the simulated stable
// storage that survives a process crash).
func NewMemStore() *MemStore { return rstp.NewMemStore() }

// Stabilize wraps a bare solution in the self-stabilizing recovery layer:
// Y stays a prefix of X across any crash/corruption schedule, and Y = X
// once the faults stop (on a channel that honours the model).
func Stabilize(s Solution, opts StabilizeOptions) StabilizedSolution {
	return rstp.Stabilize(s, opts)
}

// StabilizeHardened stacks both robustness layers — the hardened layer
// restores the channel's promises, the stabilizing layer the processes' —
// the configuration that survives the full chaos matrix.
func StabilizeHardened(hs HardenedSolution, opts StabilizeOptions) StabilizedSolution {
	return rstp.StabilizeHardened(hs, opts)
}

type (
	// Journal is the durable file-backed StateStore: an append-only,
	// fsync'd, CRC-checksummed record log with replay-on-open (torn or
	// corrupt tails truncate — damaged state reads as missing, never
	// lies) and atomic rename-based compaction. Wire it into
	// StabilizeOptions.Store and ServeConfig.Store for serving that
	// survives a real process kill.
	Journal = journal.Store
	// JournalOptions tune a Journal (zero values take defaults).
	JournalOptions = journal.Options
	// JournalFS is the filesystem surface a Journal writes through;
	// JournalFaults plans seeded filesystem fault injection (short
	// writes, fsync errors, bit flips, crash-at-offset) over any
	// JournalFS for crash testing.
	JournalFS     = journal.FS
	JournalFaults = journal.Plan
)

// OpenJournal opens (creating or replaying) the checkpoint journal in
// dir. The returned store satisfies StateStore and is safe for
// concurrent sessions.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	return journal.Open(dir, opts)
}

// NewJournalFaultFS wraps a JournalFS in the seeded fault injector — the
// crash-restart test harness's filesystem.
func NewJournalFaultFS(inner JournalFS, plan JournalFaults) JournalFS {
	return journal.NewFaultFS(inner, plan)
}

// Section 7 extensions: the delivery-window model with per-process clocks
// (see internal/rstpx for the full story).
type (
	// GenParams carries the generalised timing constants: per-process step
	// bounds and a delivery window [d1, d2].
	GenParams = rstpx.GenParams
	// GenSolution is the generalised r-passive burst solution.
	GenSolution = rstpx.GenSolution
	// GenRunOptions selects the schedules of a generalised run.
	GenRunOptions = rstpx.GenRunOptions
)

// BaseGenParams lifts classic parameters into the generalised model.
func BaseGenParams(c1, c2, d int64) GenParams { return rstpx.Base(c1, c2, d) }

// GenBeta returns the generalised r-passive burst solution with the
// paper-analogous default burst.
func GenBeta(p GenParams, k int) (GenSolution, error) { return rstpx.NewGenBeta(p, k) }

// GenBetaBurst returns the generalised solution with an explicit burst.
func GenBetaBurst(p GenParams, k, burst int) (GenSolution, error) {
	return rstpx.NewGenBetaBurst(p, k, burst)
}

// GenPassiveLowerBound is the generalised Theorem 5.3 floor: the channel
// can only scramble windows of the slack d2 - d1.
func GenPassiveLowerBound(p GenParams, k int) float64 { return rstpx.GenPassiveLowerBound(p, k) }

// GenBetaUpperBound is the generalised Lemma 6.1 ceiling.
func GenBetaUpperBound(p GenParams, k, burst int) float64 {
	return rstpx.GenBetaUpperBound(p, k, burst)
}

// WindowDelay delays each packet uniformly within [d1, d2].
func WindowDelay(d1, d2 int64, rnd interface{ Int63n(int64) int64 }) DelayPolicy {
	return &windowDelay{d1: d1, d2: d2, rnd: rnd}
}

type windowDelay struct {
	d1, d2 int64
	rnd    interface{ Int63n(int64) int64 }
}

func (w *windowDelay) Name() string { return "uniform-window(public)" }

func (w *windowDelay) Arrivals(_ int64, sendTime int64, _ wire.Dir, _ wire.Packet) []int64 {
	if w.d2 <= w.d1 {
		return []int64{sendTime + w.d1}
	}
	return []int64{sendTime + w.d1 + w.rnd.Int63n(w.d2-w.d1+1)}
}

// Serving mode: real-time, multi-session transfers over concurrent
// transports. See cmd/rstpserve for the CLI harness and DESIGN.md
// ("Serving subsystem") for the mapping from each Transport to the
// paper's channel axioms.
type (
	// Transport moves session-framed packets between a transmitter side
	// and a receiver side in real time.
	Transport = transport.Transport
	// Clock maps model ticks onto wall time for real-time runs.
	Clock = transport.Clock
	// MemOptions configures the in-memory transport (delay policy, fault
	// plan reuse, channel buffering).
	MemOptions = transport.MemOptions
	// ServeConfig configures a Server, Dialer or Pipe.
	ServeConfig = session.Config
	// Server is the receiver-side session multiplexer.
	Server = session.Server
	// Dialer is the transmitter-side session initiator.
	Dialer = session.Dialer
	// SessionConn is one live transmitter-side session.
	SessionConn = session.Conn
	// Pipe bundles a Server and Dialer over one transport in-process.
	Pipe = session.Pipe
	// SessionReport is one endpoint's final accounting.
	SessionReport = session.Report
	// TransferResult reports one end-to-end served session.
	TransferResult = session.TransferResult
	// ServeAggregate is a server- or dialer-wide counter roll-up.
	ServeAggregate = session.Aggregate
)

// Surviving a bad network: a fault plan (NewFaultPlan) as
// MemOptions.Delay makes the in-memory channel itself lossy, so every
// fault enters at one place, the transport's delay line, and the plan's
// time windows count ticks from the transport's first frame; the
// server-side progress watchdog (ServeConfig.WatchdogK) retires sessions
// that stop making progress. Loss recovery itself belongs to the
// protocol stack (the hardened layer's retransmission, the rateless
// code). See DESIGN.md ("Surviving a bad network").

// NewClock starts a real-time clock with the given tick length (use
// transport.DefaultTick via NewClock(0)).
func NewClock(tick time.Duration) *Clock { return transport.NewClock(tick) }

// NewMemTransport returns the in-memory transport: the only Transport
// that *enforces* the paper's channel axioms (delay ≤ d, no spurious
// packets, loss/duplication only under an explicit fault plan).
func NewMemTransport(clock *Clock, opts MemOptions) Transport {
	return transport.NewMem(clock, opts)
}

// NewUDPLoopback returns a UDP loopback transport pair on 127.0.0.1.
// buffer bounds each direction's backlog, the frames its consumer has
// not yet read (default 1024), as MemOptions.Buffer does: storage grows
// with the backlog, and a frame arriving while buffer frames wait is
// dropped and counted.
func NewUDPLoopback(buffer int) (Transport, error) { return transport.NewUDPLoopback(buffer) }

// Observability (PR 5): a dependency-free metrics registry, bounded
// per-session protocol event tracing, and live introspection over an
// opt-in HTTP endpoint. The hot paths cost atomics only; nothing is
// recorded unless a registry is configured. See DESIGN.md
// ("Observability") and cmd/rstpserve's -metrics-addr/-trace flags.
type (
	// Metrics is the atomic counter/gauge/histogram registry. Set it as
	// ServeConfig.Obs to instrument the session layer, and hand it to
	// InstrumentTransport / NewLayerObserver for the other layers.
	Metrics = obs.Registry
	// MetricsSnapshot is the JSON view of a registry at one instant,
	// including the live per-session table.
	MetricsSnapshot = obs.Snapshot
	// MetricsServer is a running HTTP introspection endpoint serving
	// /metrics (Prometheus text), /metrics.json, /trace and /debug/pprof.
	MetricsServer = obs.Server
	// TraceEvent is one recorded protocol transition in a session's ring.
	TraceEvent = obs.TraceEvent
	// LayerObserver receives protocol events from the hardened and
	// stabilizing wrappers (HardenOptions.Observer,
	// StabilizeOptions.Observer).
	LayerObserver = rstp.LayerObserver
	// LiveSession is one row of a Server's live session table — per-session
	// effort and effort-gap against the paper's lower bound.
	LiveSession = session.LiveSession
)

// NewMetrics returns an empty observability registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// InstrumentTransport walks a (possibly wrapped) transport stack and
// registers every layer's metrics — chaos injection counters, mem/udp
// delivery counters and the delivery-latency histogram.
func InstrumentTransport(reg *Metrics, t Transport) { transport.Instrument(reg, t) }

// NewLayerObserver returns a LayerObserver that counts hardened- and
// stabilizing-layer protocol events (retransmits, checksum rejects, epoch
// rewinds, ...) into reg under the rstp_layer_* names. One observer may
// be shared by every endpoint a server runs.
func NewLayerObserver(reg *Metrics) LayerObserver { return rstp.ObsObserver(reg) }

// Serve starts a receiver-side session server on cfg.Transport.
func Serve(cfg ServeConfig) (*Server, error) { return session.NewServer(cfg) }

// Dial starts a transmitter-side session dialer on cfg.Transport.
func Dial(cfg ServeConfig) (*Dialer, error) { return session.NewDialer(cfg) }

// NewPipe starts a Server and a Dialer sharing one transport — the
// in-process serving harness used by cmd/rstpserve.
func NewPipe(cfg ServeConfig) (*Pipe, error) { return session.NewPipe(cfg) }

// PairBuilder constructs the automaton pair for one session — what
// ServeConfig.Solution holds (every Solution, HardenedSolution and
// StabilizedSolution is one).
type PairBuilder = session.PairBuilder

// Rateless coded burst subsystem (PR 9): an LT-style fountain code over
// each block's packet multiset replaces exact-packet retransmission.
// The transmitter streams deterministic, per-block-seeded coded symbols
// until the receiver's cumulative decode ack cuts the stream (its
// selective mask stops repairs of blocks decoded out of order); loss
// costs a few extra symbols per block instead of a round trip. The
// builder satisfies PairBuilder, so the subsystem is selectable
// anywhere the hardened β/γ stacks are — ServeConfig.Solution,
// rstpserve -stack 'rateless(k=4)'. See DESIGN.md ("Coding vs.
// retransmission").
type (
	// RatelessOptions configures a rateless pair or builder: the timing
	// Params, the packet alphabet size K, the session's base Seed (block
	// b's symbol stream is a pure function of it on both ends, so
	// replays are byte-identical) and an optional metrics registry.
	RatelessOptions = rateless.Options
	// RatelessBuilder constructs rateless transmitter/receiver pairs; it
	// is a PairBuilder.
	RatelessBuilder = rateless.Builder
)

// NewRatelessBuilder validates the options and returns the pair builder.
func NewRatelessBuilder(o RatelessOptions) (*RatelessBuilder, error) { return rateless.NewBuilder(o) }

// RatelessUpperBound returns the subsystem's loss-free effort ceiling:
// δ1·c2/⌊log₂ μ_k(δ1)⌋ ticks per message — below BetaUpperBound, whose
// extra ⌈d/c1⌉·c2 term pays for burst-delimiting idle steps the coded
// stream does not need.
func RatelessUpperBound(p Params, k int) float64 { return rateless.UpperBound(p, k) }

// RatelessLowerBound returns the matching Theorem 5.6 floor (the decode
// ack makes the protocol active in the paper's taxonomy).
func RatelessLowerBound(p Params, k int) float64 { return rateless.LowerBound(p, k) }
