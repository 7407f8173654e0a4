package rstp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ioa"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/wire"
)

// The stabilizing layer: a recovery shim that lets a protocol stack
// survive the *processes* failing, the way the hardened layer (hardened.go)
// lets it survive the *channel* failing. The fault model is the
// self-stabilization one (Dolev, Dubois, Potop-Butucaru & Tixeuil,
// PAPERS.md): a process may crash and lose its volatile state, restart
// from a persisted checkpoint that may itself be missing or corrupted, or
// suffer a transient fault that mutates live state — and after the last
// fault heals, the system must converge back to "Y is a prefix of X and
// grows" within a bounded time.
//
// Mechanism. Each endpoint is wrapped in a stableEnd that owns a session
// *epoch* and checkpoints minimal protocol state through a pluggable
// StateStore — the transmitter its (epoch, input cursor), the receiver
// its epoch; the receiver's output length needs no checkpoint because the
// output tape itself is durable (write(m) is an irrevocable external
// action). Every payload packet is tagged with the epoch; packets from a
// dead session are discarded, which is what makes rebuilding the inner
// automata safe. Checkpoints carry an FNV-64 checksum, so a checkpoint
// damaged while the process was down is detected on reload rather than
// trusted.
//
// Recovery is a three-message resynchronization handshake:
//
//	RESYNC  (t→r)  "I restarted and know nothing; report."
//	REPORT  (r→t)  "my output tape holds w messages; my epoch is e."
//	REWIND  (t→r)  "new epoch e' > e; I rewound to cursor b ≤ w."
//	READY   (r→t)  "epoch e' adopted; send."
//
// A restarted transmitter probes with RESYNC; a restarted receiver (or
// one that detects a wedged session via a run of epoch-mismatched
// payloads — the live-corruption symptom) volunteers REPORT. The
// transmitter rewinds to the last block boundary at or below w, rebuilds
// its inner stack on the input suffix, and the receiver suppresses the
// re-sent bits it already wrote, so Y never repeats or skips a message.
// Every handshake message is retransmitted on a step-clock timeout and
// carries a checksum; epochs only grow, so stale handshake traffic from
// an older session is ignored by construction.
//
// Guarantee split, mirroring the hardened layer: safety — Y a prefix of X
// at every point — holds under ANY crash/corruption schedule, because the
// inner automata only ever see packets of the live epoch and the receiver
// suppresses rewound duplicates. Convergence — Y = X with a finite
// Stabilization time — additionally needs the faults to stop (every
// crash restarted, no further corruption) and, if the channel is faulty
// too, the inner stack to be hardened (compose: Stabilize ∘ Harden).

// StateStore persists a wrapper's checkpoint across process crashes. A
// store may lose or corrupt data (that is the point — the layer detects
// it). Implementations must be safe for concurrent use: the simulator is
// single-threaded, but the serving layer (internal/session) shares one
// store across every session goroutine, and internal/journal shares one
// durable journal across a whole process.
type StateStore interface {
	// Save durably records data under key, replacing any previous value.
	Save(key string, data []byte)
	// Load returns the bytes last saved under key.
	Load(key string) (data []byte, ok bool)
}

// MemStore is the canonical StateStore: an in-memory map, which in the
// simulation plays the role of the stable storage that survives a process
// crash (the simulated "disk"). For stable storage that survives a real
// process crash, see internal/journal.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Save implements StateStore.
func (s *MemStore) Save(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
}

// Load implements StateStore.
func (s *MemStore) Load(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[key]
	return append([]byte(nil), d...), ok
}

// Checkpoint codec: n big-endian int64 fields followed by an FNV-64
// checksum of those bytes. Any bit flip in a stored checkpoint changes
// the hash, so a damaged checkpoint reads as "missing" rather than as a
// plausible lie.

func fnv64(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func encodeCkpt(vals ...int64) []byte {
	out := make([]byte, 8*len(vals)+8)
	for i, v := range vals {
		binary.BigEndian.PutUint64(out[8*i:], uint64(v))
	}
	binary.BigEndian.PutUint64(out[8*len(vals):], fnv64(out[:8*len(vals)]))
	return out
}

func decodeCkpt(data []byte, n int) ([]int64, bool) {
	if len(data) != 8*n+8 {
		return nil, false
	}
	if binary.BigEndian.Uint64(data[8*n:]) != fnv64(data[:8*n]) {
		return nil, false
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.BigEndian.Uint64(data[8*i:]))
	}
	return vals, true
}

// Tag layout on a stabilized channel. Payload packets (bit 0 clear) carry
// the session epoch mod 2^12 in bits 1-12 and the inner layer's tag
// shifted above; control packets (bit 0 set) carry a handshake kind in
// bits 1-2, a 4-bit checksum in bits 3-6, a 24-bit count (output length /
// cursor) in bits 7-30 and the full epoch above.
const (
	stCtrlBit    = 1
	stKindShift  = 1
	stKindMask   = 0x3
	stCkShift    = 3
	stCkMask     = 0xF
	stCountShift = 7
	stCountMask  = (1 << 24) - 1
	stEpochShift = 31

	stPayloadEpochShift = 1
	stPayloadEpochMask  = 0xFFF
	stPayloadTagShift   = 13
)

// Handshake message kinds.
const (
	stResync = 0
	stReport = 1
	stRewind = 2
	stReady  = 3
)

// stIdleRTOs is the receiver's quiet trigger, in retransmission timeouts:
// a live session that delivers no payload for this long makes the
// receiver volunteer a REPORT. This is the probe that recovers from a
// wedge the mismatch counter cannot see — a transmitter whose corrupted
// epoch made it finish its stream into the void, leaving no further
// traffic to count. The probe is idempotent (a resync of a healthy
// session rewinds to the current frontier and re-establishes it), so
// firing it spuriously during a long channel outage costs one handshake
// round and never correctness.
const stIdleRTOs = 4

func stKindName(kind int) string {
	switch kind {
	case stResync:
		return "RESYNC"
	case stReport:
		return "REPORT"
	case stRewind:
		return "REWIND"
	case stReady:
		return "READY"
	default:
		return fmt.Sprintf("ctrl(%d)", kind)
	}
}

// stChecksum hashes a control header into 4 bits.
func stChecksum(kind int, epoch, count int64, dir wire.Dir) int {
	h := int64(kind)*131 + epoch*1000003 + count*31 + int64(dir)*7
	return int(((h % 16) + 16) % 16)
}

// stWrapPayload seals an inner packet with the session epoch.
func stWrapPayload(epoch int64, inner wire.Packet) wire.Packet {
	return wire.Packet{
		Kind:   inner.Kind,
		Symbol: inner.Symbol,
		Tag:    inner.Tag<<stPayloadTagShift | int(epoch&stPayloadEpochMask)<<stPayloadEpochShift,
	}
}

// stCtrlPacket builds a handshake packet.
func stCtrlPacket(kind int, epoch, count int64, dir wire.Dir) wire.Packet {
	ck := stChecksum(kind, epoch, count, dir)
	return wire.Packet{
		Kind: wire.Ack,
		Tag: int(epoch)<<stEpochShift | int(count&stCountMask)<<stCountShift |
			ck<<stCkShift | kind<<stKindShift | stCtrlBit,
	}
}

// stDecode splits a received packet. For controls ok reports the checksum
// verdict; for payloads it is always true (the inner layer judges its own
// integrity) and epoch is the 12-bit session tag.
func stDecode(p wire.Packet, dir wire.Dir) (ctrl bool, kind int, epoch, count int64, inner wire.Packet, ok bool) {
	if p.Tag&stCtrlBit != 0 {
		kind = (p.Tag >> stKindShift) & stKindMask
		ck := (p.Tag >> stCkShift) & stCkMask
		count = int64(p.Tag>>stCountShift) & stCountMask
		epoch = int64(p.Tag) >> stEpochShift
		ok = epoch >= 0 && stChecksum(kind, epoch, count, dir) == ck
		return true, kind, epoch, count, wire.Packet{}, ok
	}
	epoch = int64(p.Tag>>stPayloadEpochShift) & stPayloadEpochMask
	inner = p
	inner.Tag = p.Tag >> stPayloadTagShift
	return false, 0, epoch, 0, inner, true
}

// stMismatchLimit is the run of consecutive epoch-mismatched payloads
// after which the receiver assumes a wedged session (the live-epoch-
// corruption symptom) and volunteers a REPORT: 64, larger than any
// in-flight backlog a healing handshake leaves behind, so a working
// session never trips it.
const stMismatchLimit = 64

// StabilizeOptions configure the stabilizing layer's storage and hooks.
// Its handshake retransmission timeout is roundTripSteps of the
// solution's Params, the hardened layer's round-trip bound.
type StabilizeOptions struct {
	// Store persists checkpoints across crashes. Default: a fresh MemStore
	// shared by the two endpoints of each NewPair.
	Store StateStore
	// Observer receives the layer's protocol events (epoch rewinds,
	// rewind adoptions, control rejects, dead-epoch drops). Shared across
	// every endpoint built from these options, so implementations must be
	// concurrency-safe. nil disables the hooks.
	Observer LayerObserver
	// KeyPrefix namespaces the checkpoint keys ("t"/"r") inside Store, so
	// many sessions can share one durable store — the serving layer
	// prefixes each session's keys with "s<ID>/". Empty keeps the bare
	// keys, the simulator's single-session layout.
	KeyPrefix string
	// Recover makes NewPair build endpoints that restart from the store
	// instead of assuming a fresh session: each endpoint reloads its
	// checkpoint (missing or corrupt reads as "know nothing") and enters
	// the RESYNC/REPORT handshake, exactly as after a sim crash. This is
	// the real-process restart path: a server reopening a journal store
	// resumes its sessions where the checkpoints left them, paying one
	// handshake round even when the store is empty.
	Recover bool
}

const (
	roleT = 0
	roleR = 1
)

// stableEnd wraps one endpoint with the stabilizing layer. It implements
// sim.Restartable (real crash semantics: volatile state wiped, checkpoint
// reloaded) and sim.StateCorruptible (transient faults flip a checkpoint
// bit or bump the live epoch).
type stableEnd struct {
	role          int
	name          string
	outDir, inDir wire.Dir
	store         StateStore
	key           string
	rto           int64
	blockBits     int64
	x             []wire.Bit // transmitter input (nil on the receiver)
	build         func(x []wire.Bit) (ioa.Automaton, error)

	// Volatile state, wiped by Crash and rebuilt by Restart.
	inner    ioa.Automaton // nil while resynchronizing
	epoch    int64
	base     int64 // t: input cursor at epoch start; r: cursor from REWIND
	synced   bool  // t: READY received for the current epoch
	announce bool  // r: REPORT until a REWIND adopts a new epoch
	pending  bool  // r: a READY reply is owed
	steps    int64 // local step counter — the layer's clock
	lastCtrl int64 // steps at the last paced control send
	lastLive int64 // r: steps at the last accepted live-epoch payload
	suppress int64 // r: rewound duplicate writes left to swallow

	// Durable by nature: the receiver's output tape length. write(m) is an
	// external action on a durable device, so a crash cannot unwrite it.
	writes int64

	// Diagnostics.
	rejected   int // control checksum failures dropped
	staleDrops int // payloads from a dead epoch discarded
	mismatches int // consecutive mismatches (r side trigger counter)

	obs LayerObserver // nil disables the event hooks
}

var (
	_ ioa.Automaton        = (*stableEnd)(nil)
	_ sim.Restartable      = (*stableEnd)(nil)
	_ sim.StateCorruptible = (*stableEnd)(nil)
)

// persist checkpoints the endpoint's minimal state.
func (e *stableEnd) persist() {
	if e.role == roleT {
		e.store.Save(e.key, encodeCkpt(e.epoch, e.base))
	} else {
		e.store.Save(e.key, encodeCkpt(e.epoch))
	}
}

// load reloads the checkpoint; ok is false when it is missing or fails
// its checksum, in which case the endpoint knows nothing and must rely on
// the handshake entirely.
func (e *stableEnd) load() bool {
	data, found := e.store.Load(e.key)
	if !found {
		return false
	}
	n := 1
	if e.role == roleT {
		n = 2
	}
	vals, ok := decodeCkpt(data, n)
	if !ok {
		return false
	}
	e.epoch = vals[0]
	if e.role == roleT {
		e.base = vals[1]
	}
	return true
}

// Crash implements sim.Restartable: the process halts and its volatile
// state is gone. The output-tape length survives on the receiver — it is
// a property of the durable tape, not of the process.
func (e *stableEnd) Crash(int64) {
	e.inner = nil
	e.synced = false
	e.announce = false
	e.pending = false
	e.suppress = 0
	e.mismatches = 0
}

// Restart implements sim.Restartable: reload the checkpoint (zero
// knowledge if missing/corrupt) and enter the handshake — the transmitter
// probes with RESYNC, the receiver volunteers REPORT.
func (e *stableEnd) Restart(int64) {
	e.epoch = 0
	e.base = 0
	e.steps = 0
	e.lastCtrl = -e.rto
	e.lastLive = 0
	e.load() // best effort; a failed load leaves epoch 0 ("know nothing")
	e.inner = nil
	e.synced = false
	e.pending = false
	e.suppress = 0
	e.mismatches = 0
	e.announce = e.role == roleR
}

// ResumeTape informs a recovering receiver endpoint that the durable
// output tape already holds n messages. The paper makes the output tape
// itself stable storage — write(m) is irrevocable — so a restarted
// process that reloads its tape must also restore the wrapper's view of
// its length before the first REPORT, or the handshake would rewind the
// transmitter to zero and duplicate every message already written. Call
// it after construction (with Recover set) and before the first step;
// it is a no-op on transmitter endpoints.
func (e *stableEnd) ResumeTape(n int64) {
	if e.role == roleR && n > e.writes {
		e.writes = n
	}
}

// CorruptState implements sim.StateCorruptible: a transient fault flips
// one bit of the persisted checkpoint (detected by checksum on the next
// reload) or bumps the live epoch (detected by the peer's mismatch run).
func (e *stableEnd) CorruptState(r *rand.Rand) string {
	if data, ok := e.store.Load(e.key); ok && len(data) > 0 && r.Intn(2) == 0 {
		bit := r.Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
		e.store.Save(e.key, data)
		return fmt.Sprintf("checkpoint %q bit %d flipped", e.key, bit)
	}
	delta := int64(1 + r.Intn(7))
	e.epoch += delta
	return fmt.Sprintf("live epoch +%d", delta)
}

// Name keeps the inner actor name ("t"/"r") even while the inner stack is
// torn down, so traces and validators see the usual actors.
func (e *stableEnd) Name() string { return e.name }

// Classify places layer traffic first, then defers to the inner stack.
// As with the hardened layer, every Recv on inDir is an input regardless
// of content — the layer, not the signature, discards dead-epoch traffic.
func (e *stableEnd) Classify(act ioa.Action) ioa.Class {
	switch a := act.(type) {
	case wire.Recv:
		if a.Dir == e.inDir {
			return ioa.ClassInput
		}
	case wire.Send:
		if a.Dir == e.outDir {
			return ioa.ClassOutput
		}
	case wire.Internal:
		if a.Name == "idle_s" || a.Name == "skip_w" {
			return ioa.ClassInternal
		}
	}
	if e.inner == nil {
		return ioa.ClassNone
	}
	return e.inner.Classify(act)
}

// due reports whether the paced control retransmission timer fired.
func (e *stableEnd) due() bool { return e.steps-e.lastCtrl >= e.rto }

// idle reports the receiver's quiet trigger: a live session with no
// accepted payload for stIdleRTOs timeouts.
func (e *stableEnd) idle() bool { return e.steps-e.lastLive >= stIdleRTOs*e.rto }

// forceDue arms the control timer to fire at the next local step.
func (e *stableEnd) forceDue() { e.lastCtrl = e.steps - e.rto }

// ForceResync asks the endpoint to re-establish its session now instead
// of waiting for a trigger of its own (mismatch run, quiet clock,
// restart). The receiver volunteers a REPORT; the transmitter drops back
// to unsynced and re-announces its REWIND. It is the hook an external
// watchdog pulls when it believes a session is wedged for reasons the
// layer cannot observe — e.g. a transport partition outlasting every
// in-band timer. Forcing a resync on a healthy session costs one
// idempotent handshake round and never safety.
func (e *stableEnd) ForceResync() {
	if e.role == roleR {
		e.announce = true
		e.mismatches = 0
	} else if e.inner != nil {
		e.synced = false
	}
	e.forceDue()
}

// NextLocal picks the layer's next action. While the session is being
// re-established the handshake owns the step clock (paced control sends
// with internal idle steps between them); in a live session the inner
// stack's actions flow through, sends wrapped with the epoch and rewound
// duplicate writes swallowed as internal steps.
func (e *stableEnd) NextLocal() (ioa.Action, bool) {
	if e.role == roleT {
		if e.inner == nil { // awaiting REPORT
			if e.due() {
				return wire.Send{Dir: e.outDir, P: stCtrlPacket(stResync, e.epoch, 0, e.outDir)}, true
			}
			return actIdleS, true
		}
		if !e.synced { // awaiting READY
			if e.due() {
				return wire.Send{Dir: e.outDir, P: stCtrlPacket(stRewind, e.epoch, e.base, e.outDir)}, true
			}
			return actIdleS, true
		}
	} else {
		if e.pending {
			return wire.Send{Dir: e.outDir, P: stCtrlPacket(stReady, e.epoch, 0, e.outDir)}, true
		}
		if e.inner == nil || e.announce || e.idle() { // awaiting REWIND, or probing a quiet session
			if e.due() {
				return wire.Send{Dir: e.outDir, P: stCtrlPacket(stReport, e.epoch, e.writes, e.outDir)}, true
			}
			return actIdleS, true
		}
	}
	act, ok := e.inner.NextLocal()
	if !ok {
		return nil, false
	}
	if s, isSend := act.(wire.Send); isSend && s.Dir == e.outDir {
		return wire.Send{Dir: e.outDir, P: stWrapPayload(e.epoch, s.P)}, true
	}
	if _, isWrite := act.(wire.Write); isWrite && e.suppress > 0 {
		return actSkipW, true
	}
	return act, true
}

// Apply performs one transition: inputs through the receive path, layer
// sends through the send path, suppressed writes committed silently to
// the inner stack, everything else forwarded verbatim.
func (e *stableEnd) Apply(act ioa.Action) error {
	if recv, ok := act.(wire.Recv); ok && recv.Dir == e.inDir {
		return e.onRecv(recv.P)
	}
	switch a := act.(type) {
	case wire.Internal:
		switch a.Name {
		case "idle_s":
			e.steps++
			return nil
		case "skip_w":
			// Commit the rewound duplicate write to the inner stack without
			// letting it reach the durable tape. NextLocal is pure, so
			// re-asking yields the write we are swallowing.
			inner, ok := e.inner.NextLocal()
			if !ok {
				return fmt.Errorf("rstp: stabilized %s: suppressed write vanished: %w", e.name, ioa.ErrNotEnabled)
			}
			if _, isWrite := inner.(wire.Write); !isWrite {
				return fmt.Errorf("rstp: stabilized %s: suppressed %v is not a write: %w", e.name, inner, ioa.ErrNotEnabled)
			}
			if err := e.inner.Apply(inner); err != nil {
				return err
			}
			e.suppress--
			e.steps++
			return nil
		}
	case wire.Send:
		if a.Dir == e.outDir {
			return e.onLocalSend(a)
		}
	case wire.Write:
		if e.inner == nil {
			return fmt.Errorf("rstp: stabilized %s: write with no session: %w", e.name, ioa.ErrNotEnabled)
		}
		e.steps++
		if err := e.inner.Apply(a); err != nil {
			return err
		}
		e.writes++ // the durable tape grew
		return nil
	}
	if e.inner == nil {
		return fmt.Errorf("rstp: stabilized %s: %v with no session: %w", e.name, act, ioa.ErrNotEnabled)
	}
	e.steps++
	return e.inner.Apply(act)
}

// onLocalSend commits one of the layer's own send actions.
func (e *stableEnd) onLocalSend(s wire.Send) error {
	e.steps++
	ctrl, kind, _, _, _, ok := stDecode(s.P, e.outDir)
	if !ok {
		return fmt.Errorf("rstp: stabilized %s: malformed local send %v: %w", e.name, s, ioa.ErrNotEnabled)
	}
	if ctrl {
		e.lastCtrl = e.steps
		if kind == stReady {
			e.pending = false
		}
		return nil
	}
	// Payload: the inner stack's pending send becomes real now.
	if e.inner == nil {
		return fmt.Errorf("rstp: stabilized %s: payload send with no session: %w", e.name, ioa.ErrNotEnabled)
	}
	inner, ok2 := e.inner.NextLocal()
	if !ok2 {
		return fmt.Errorf("rstp: stabilized %s: inner send vanished: %w", e.name, ioa.ErrNotEnabled)
	}
	return e.inner.Apply(inner)
}

// resync performs the transmitter's half of the handshake: adopt a fresh
// epoch above everything either side has seen, rewind the input cursor to
// the last block boundary at or below the receiver's reported output
// length, rebuild the inner stack on the suffix, checkpoint, and start
// announcing the REWIND.
func (e *stableEnd) resync(reportedEpoch, reportedWrites int64) error {
	next := e.epoch
	if reportedEpoch > next {
		next = reportedEpoch
	}
	e.epoch = next + 1
	e.base = reportedWrites - reportedWrites%e.blockBits
	if e.base < 0 {
		e.base = 0
	}
	if e.base > int64(len(e.x)) {
		e.base = int64(len(e.x)) - int64(len(e.x))%e.blockBits
	}
	inner, err := e.build(e.x[e.base:])
	if err != nil {
		return fmt.Errorf("rstp: stabilized %s: rebuild at cursor %d: %w", e.name, e.base, err)
	}
	e.inner = inner
	e.synced = false
	e.persist()
	e.forceDue() // announce the REWIND immediately
	emit(e.obs, LayerResync)
	return nil
}

// onRecv is the layer's receive path: handshake controls update the
// session, payloads of the live epoch flow to the inner stack, and
// everything else is discarded (counting toward the receiver's wedged-
// session trigger).
func (e *stableEnd) onRecv(p wire.Packet) error {
	ctrl, kind, epoch, count, inner, ok := stDecode(p, e.inDir)
	if ctrl {
		if !ok {
			e.rejected++
			emit(e.obs, LayerCtrlReject)
			return nil
		}
		switch {
		case kind == stResync && e.role == roleR:
			// The transmitter restarted and knows nothing: volunteer a
			// REPORT. The inner stack (if any) is kept until the REWIND
			// actually moves the session.
			e.announce = true
			e.forceDue()
		case kind == stReport && e.role == roleT:
			// Any valid REPORT re-synchronizes: a restarted or wedged
			// receiver is asking for a session it can join. Duplicates
			// cost one extra (idempotent) handshake round, never safety.
			return e.resync(epoch, count)
		case kind == stRewind && e.role == roleR:
			switch {
			case epoch > e.epoch:
				// Adopt the new session: everything already on the tape
				// above the rewound cursor will be re-sent and must be
				// swallowed, never re-written.
				e.epoch = epoch
				e.suppress = e.writes - count
				if e.suppress < 0 {
					e.suppress = 0
				}
				fresh, err := e.build(nil)
				if err != nil {
					return fmt.Errorf("rstp: stabilized %s: rebuild receiver: %w", e.name, err)
				}
				e.inner = fresh
				e.announce = false
				e.mismatches = 0
				e.pending = true
				e.lastLive = e.steps // fresh session: restart the quiet clock
				e.persist()
				emit(e.obs, LayerRewindAdopt)
			case epoch == e.epoch:
				e.pending = true // duplicate REWIND: re-ack
				e.lastLive = e.steps
			}
		case kind == stReady && e.role == roleT:
			if epoch == e.epoch && e.inner != nil {
				e.synced = true
			}
		}
		return nil
	}
	// Payload.
	if e.inner == nil || (e.role == roleR && e.announce) || (e.role == roleT && !e.synced) {
		e.staleDrops++
		emit(e.obs, LayerEpochDrop)
		return nil
	}
	if epoch != e.epoch&stPayloadEpochMask {
		e.staleDrops++
		emit(e.obs, LayerEpochDrop)
		if e.role == roleR {
			e.mismatches++
			if e.mismatches >= stMismatchLimit {
				// A long run of dead-epoch payloads means the session is
				// wedged (live epoch corruption on either side): ask for
				// a resynchronization.
				e.announce = true
				e.mismatches = 0
				e.forceDue()
			}
		}
		return nil
	}
	e.mismatches = 0
	e.lastLive = e.steps
	return e.inner.Apply(RecvAction(e.inDir, inner, ""))
}

// StabilizedSolution is a protocol stack wrapped in the stabilizing layer
// at both endpoints. Build one with Stabilize (over a bare Solution) or
// StabilizeHardened (over a hardened stack, the full-chaos configuration).
type StabilizedSolution struct {
	// Params are the inner solution's timing constants.
	Params Params
	// BlockBits is the inner solution's input block size; resynchron-
	// ization rewinds the cursor to block boundaries.
	BlockBits int
	// Opts are the layer's storage and hooks.
	Opts StabilizeOptions

	inner pairBuilder
}

// Stabilize wraps a bare solution in the stabilizing layer. On a channel
// that honours the model this survives any healing crash/corruption
// schedule; if the channel misbehaves too, stack the layers with
// StabilizeHardened.
func Stabilize(s Solution, opts StabilizeOptions) StabilizedSolution {
	return StabilizedSolution{
		Params:    s.Params,
		BlockBits: s.BlockBits,
		Opts:      opts,
		inner:     s,
	}
}

// StabilizeHardened stacks both robustness layers: the hardened layer
// restores the channel's promises, the stabilizing layer restores the
// processes' — the configuration for surviving the full chaos matrix.
func StabilizeHardened(hs HardenedSolution, opts StabilizeOptions) StabilizedSolution {
	return StabilizedSolution{
		Params:    hs.Inner.Params,
		BlockBits: hs.Inner.BlockBits,
		Opts:      opts,
		inner:     hs,
	}
}

// String renders e.g. "stabilized(hardened(beta(k=4)))".
func (ss StabilizedSolution) String() string { return "stabilized(" + ss.inner.String() + ")" }

// NewPairKeyed constructs a pair whose persisted state lives under
// prefix inside the shared store: the checkpoint keys become
// prefix+"t" and prefix+"r". This is the serving layer's entry point —
// one journal store, many sessions, each namespaced by its session ID —
// and it satisfies session.KeyedPairBuilder.
func (ss StabilizedSolution) NewPairKeyed(prefix string, x []wire.Bit) (t, r ioa.Automaton, err error) {
	ss.Opts.KeyPrefix = prefix
	return ss.NewPair(x)
}

// NewPair constructs the wrapped transmitter and receiver for input x.
// The two endpoints share one StateStore (Opts.Store, or a fresh MemStore)
// under the keys "t" and "r" (prefixed by Opts.KeyPrefix); construction
// writes the initial checkpoints — or, with Opts.Recover set, reloads
// whatever checkpoints the store holds and starts both endpoints in the
// resynchronization handshake instead.
func (ss StabilizedSolution) NewPair(x []wire.Bit) (t, r ioa.Automaton, err error) {
	if ss.BlockBits > 0 && len(x)%ss.BlockBits != 0 {
		return nil, nil, fmt.Errorf("rstp: %s: input length %d not a multiple of block size %d", ss, len(x), ss.BlockBits)
	}
	store := ss.Opts.Store
	if store == nil {
		store = NewMemStore()
	}
	rto := roundTripSteps(ss.Params)
	it, ir, err := ss.inner.NewPair(x)
	if err != nil {
		return nil, nil, err
	}
	blockBits := int64(ss.BlockBits)
	if blockBits < 1 {
		blockBits = 1
	}
	te := &stableEnd{
		role: roleT, name: it.Name(), outDir: wire.TtoR, inDir: wire.RtoT,
		store: store, key: ss.Opts.KeyPrefix + "t", rto: rto,
		blockBits: blockBits, x: x,
		build: func(suffix []wire.Bit) (ioa.Automaton, error) {
			nt, _, err := ss.inner.NewPair(suffix)
			return nt, err
		},
		inner: it, epoch: 1, synced: true, lastCtrl: -rto,
		obs: ss.Opts.Observer,
	}
	re := &stableEnd{
		role: roleR, name: ir.Name(), outDir: wire.RtoT, inDir: wire.TtoR,
		store: store, key: ss.Opts.KeyPrefix + "r", rto: rto,
		blockBits: blockBits,
		build: func([]wire.Bit) (ioa.Automaton, error) {
			_, nr, err := ss.inner.NewPair(nil)
			return nr, err
		},
		inner: ir, epoch: 1, lastCtrl: -rto,
		obs: ss.Opts.Observer,
	}
	if ss.Opts.Recover {
		// Restart semantics, not fresh-session semantics: reload whatever
		// the store holds (an empty store reads as "know nothing") and run
		// the handshake. The initial checkpoints are NOT written here —
		// that would overwrite the durable state being recovered.
		te.Restart(0)
		re.Restart(0)
	} else {
		te.persist()
		re.persist()
	}
	return te, re, nil
}

// Run executes the stabilized stack on input x until all |x| messages are
// written or the caps fire, measuring the Stabilization report when a
// process-fault plan was scheduled.
func (ss StabilizedSolution) Run(x []wire.Bit, opt RunOptions) (*sim.Run, error) {
	return simulate(ss, ss.Params, x, opt)
}

// VerifySafety checks the fault-tolerant guarantee: Y is a prefix of X at
// every point of the trace, whatever the crash/corruption schedule did.
func (ss StabilizedSolution) VerifySafety(run *sim.Run, x []wire.Bit) []timed.Violation {
	return timed.PrefixInvariant(run.Trace, x, false)
}

// VerifyComplete checks safety plus the convergence outcome Y = X — the
// guarantee once every fault window has closed.
func (ss StabilizedSolution) VerifyComplete(run *sim.Run, x []wire.Bit) []timed.Violation {
	return timed.PrefixInvariant(run.Trace, x, true)
}

// Verify holds a fault-free stabilized run to the full good(A) + Y = X
// standard: on a healthy channel with immortal processes the layer is a
// pass-through and earns no slack.
func (ss StabilizedSolution) Verify(run *sim.Run, x []wire.Bit) []timed.Violation {
	return verifyGood(ss.Params, run, x)
}
