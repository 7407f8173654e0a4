package rstp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/timed"
	"repro/internal/wire"
)

// procChaosPlans is the process-fault half of the chaos matrix: every
// plan heals (each crash restarts, corruption is transient), so a
// stabilized run must not only stay safe but converge to Y = X.
type procChaosPlan struct {
	name string
	mk   func() *faults.ProcPlan
}

func procChaosPlans() []procChaosPlan {
	return []procChaosPlan{
		{"crash-t", func() *faults.ProcPlan {
			return faults.NewProcPlan(41,
				faults.ProcFault{Proc: sim.ProcTransmitter, From: 60, To: 240, Crash: true})
		}},
		{"crash-r", func() *faults.ProcPlan {
			return faults.NewProcPlan(42,
				faults.ProcFault{Proc: sim.ProcReceiver, From: 60, To: 240, Crash: true})
		}},
		{"crash-both", func() *faults.ProcPlan {
			return faults.NewProcPlan(43,
				faults.ProcFault{Proc: sim.ProcTransmitter, From: 60, To: 200, Crash: true},
				faults.ProcFault{Proc: sim.ProcReceiver, From: 260, To: 420, Crash: true})
		}},
		{"ckpt-corrupt-t", func() *faults.ProcPlan {
			return faults.NewProcPlan(44,
				faults.ProcFault{Proc: sim.ProcTransmitter, From: 80, To: 240, Crash: true, Corrupt: true})
		}},
		{"ckpt-corrupt-r", func() *faults.ProcPlan {
			return faults.NewProcPlan(45,
				faults.ProcFault{Proc: sim.ProcReceiver, From: 80, To: 240, Crash: true, Corrupt: true})
		}},
		{"live-corrupt-t", func() *faults.ProcPlan {
			return faults.NewProcPlan(46,
				faults.ProcFault{Proc: sim.ProcTransmitter, From: 150, Corrupt: true})
		}},
		{"live-corrupt-r", func() *faults.ProcPlan {
			return faults.NewProcPlan(47,
				faults.ProcFault{Proc: sim.ProcReceiver, From: 150, Corrupt: true})
		}},
		{"rate-t", func() *faults.ProcPlan {
			return faults.NewProcPlan(48,
				faults.ProcFault{Proc: sim.ProcTransmitter, From: 60, To: 300, RateFactor: 4})
		}},
	}
}

func TestStabilizedPayloadCodecRoundTrip(t *testing.T) {
	for epoch := int64(1); epoch < 50; epoch += 7 {
		for tag := 0; tag < 64; tag += 5 {
			inner := wire.DataPacket(wire.Symbol(tag % 4))
			inner.Tag = tag
			w := stWrapPayload(epoch, inner)
			ctrl, _, gotEpoch, _, got, ok := stDecode(w, wire.TtoR)
			if ctrl || !ok || gotEpoch != epoch&stPayloadEpochMask || got.Tag != tag || got.Symbol != inner.Symbol {
				t.Fatalf("payload epoch=%d tag=%d: ctrl=%v ok=%v epoch=%d tag=%d", epoch, tag, ctrl, ok, gotEpoch, got.Tag)
			}
		}
	}
}

func TestStabilizedCtrlCodecRoundTrip(t *testing.T) {
	for _, kind := range []int{stResync, stReport, stRewind, stReady} {
		for epoch := int64(1); epoch < 100; epoch += 13 {
			for count := int64(0); count < 300; count += 71 {
				p := stCtrlPacket(kind, epoch, count, wire.RtoT)
				ctrl, gotKind, gotEpoch, gotCount, _, ok := stDecode(p, wire.RtoT)
				if !ctrl || !ok || gotKind != kind || gotEpoch != epoch || gotCount != count {
					t.Fatalf("%s epoch=%d count=%d: ctrl=%v ok=%v kind=%d epoch=%d count=%d",
						stKindName(kind), epoch, count, ctrl, ok, gotKind, gotEpoch, gotCount)
				}
			}
		}
	}
}

// TestStabilizedCtrlChecksum: damaging any header field of a control
// packet must flip its checksum verdict; damaging only the symbol must
// not (the channel fault injector corrupts symbols, and control packets
// carry no payload symbol — they are immune to it by construction).
func TestStabilizedCtrlChecksum(t *testing.T) {
	p := stCtrlPacket(stReport, 7, 42, wire.RtoT)
	for _, delta := range []int{1 << stKindShift, 1 << stCountShift, 1 << stEpochShift} {
		bad := p
		bad.Tag += delta
		if _, _, _, _, _, ok := stDecode(bad, wire.RtoT); ok {
			t.Fatalf("tag damage %#x passed the checksum", delta)
		}
	}
	bad := p
	bad.Symbol += 7
	if _, _, _, _, _, ok := stDecode(bad, wire.RtoT); !ok {
		t.Fatal("symbol damage rejected a control packet that does not use the symbol")
	}
	// A control packet checksummed for one direction must not validate for
	// the other (guards against reflection).
	if _, _, _, _, _, ok := stDecode(p, wire.TtoR); ok {
		t.Fatal("control packet validated in the wrong direction")
	}
}

func TestCheckpointCodec(t *testing.T) {
	data := encodeCkpt(3, -7, 1<<40)
	vals, ok := decodeCkpt(data, 3)
	if !ok || vals[0] != 3 || vals[1] != -7 || vals[2] != 1<<40 {
		t.Fatalf("roundtrip: %v ok=%v", vals, ok)
	}
	for bit := 0; bit < len(data)*8; bit++ {
		bad := append([]byte(nil), data...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, ok := decodeCkpt(bad, 3); ok {
			t.Fatalf("bit %d flip passed the checksum", bit)
		}
	}
	if _, ok := decodeCkpt(data, 2); ok {
		t.Fatal("wrong field count accepted")
	}
	if _, ok := decodeCkpt(data[:len(data)-1], 3); ok {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	orig := []byte{1, 2, 3}
	s.Save("k", orig)
	orig[0] = 9
	got, ok := s.Load("k")
	if !ok || got[0] != 1 {
		t.Fatalf("store aliased caller bytes: %v ok=%v", got, ok)
	}
	got[1] = 9
	again, _ := s.Load("k")
	if again[1] != 2 {
		t.Fatal("store aliased returned bytes")
	}
	if _, ok := s.Load("missing"); ok {
		t.Fatal("missing key reported present")
	}
}

// TestStabilizedFaultFree: with no faults at all the stabilizing layer is
// a pass-through, held to the full good(A) + Y = X standard in both its
// bare and stacked configurations.
func TestStabilizedFaultFree(t *testing.T) {
	for _, s := range chaosSolutions(t) {
		for _, ss := range []StabilizedSolution{
			Stabilize(s, StabilizeOptions{}),
			StabilizeHardened(Harden(s, HardenOptions{}), StabilizeOptions{}),
		} {
			t.Run(ss.String(), func(t *testing.T) {
				x := chaosInput(s, 6)
				run, err := ss.Run(x, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if v := ss.Verify(run, x); len(v) > 0 {
					t.Fatalf("fault-free stabilized run not good: %v (and %d more)", v[0], len(v)-1)
				}
				if run.Stabilization != nil {
					t.Fatalf("Stabilization report without a fault plan: %v", run.Stabilization)
				}
			})
		}
	}
}

// TestStabilizedCrashMatrix is the acceptance matrix for process faults:
// every protocol, in both the bare and the stacked wrapping, under every
// healing crash/corruption plan, keeps Y a prefix of X throughout and
// converges to Y = X with a finite reported stabilization time.
func TestStabilizedCrashMatrix(t *testing.T) {
	for _, s := range chaosSolutions(t) {
		for _, ss := range []StabilizedSolution{
			Stabilize(s, StabilizeOptions{}),
			StabilizeHardened(Harden(s, HardenOptions{}), StabilizeOptions{}),
		} {
			for _, pp := range procChaosPlans() {
				t.Run(ss.String()+"/"+pp.name, func(t *testing.T) {
					x := chaosInput(s, 12)
					plan := pp.mk()
					run, err := ss.Run(x, RunOptions{ProcFaults: plan, MaxTicks: 500_000})
					if err != nil {
						t.Fatalf("run failed to complete: %v (stab: %v)", err, run.Stabilization)
					}
					if v := ss.VerifySafety(run, x); len(v) > 0 {
						t.Fatalf("SAFETY violated under %s: %v", plan.Name(), v[0])
					}
					if v := ss.VerifyComplete(run, x); len(v) > 0 {
						t.Fatalf("convergence after heal failed under %s: %v", plan.Name(), v[0])
					}
					st := run.Stabilization
					if st == nil || !st.Measured {
						t.Fatalf("no measured Stabilization report: %v", st)
					}
					if !st.Stabilized {
						t.Fatalf("report says not stabilized: %v", st)
					}
					if st.SettleTicks < 0 || st.SettleTicks > 100_000 {
						t.Fatalf("settle time not finite/sane: %v", st)
					}
				})
			}
		}
	}
}

// TestStabilizedFullChaosMatrix stacks both wrappers and both fault
// planes: every protocol under every seeded channel plan of the PR 1
// matrix with a crash/corruption plan layered on top. Safety must hold
// throughout and the run must still converge to Y = X.
func TestStabilizedFullChaosMatrix(t *testing.T) {
	procPlan := func() *faults.ProcPlan {
		return faults.NewProcPlan(51,
			faults.ProcFault{Proc: sim.ProcTransmitter, From: 100, To: 260, Crash: true, Corrupt: true},
			faults.ProcFault{Proc: sim.ProcReceiver, From: 320, To: 480, Crash: true})
	}
	for _, s := range chaosSolutions(t) {
		for _, cp := range chaosPlans(chaosParams()) {
			ss := StabilizeHardened(Harden(s, HardenOptions{}), StabilizeOptions{})
			t.Run(ss.String()+"/"+cp.name, func(t *testing.T) {
				x := chaosInput(s, 6)
				chanPlan := cp.mk()
				run, err := ss.Run(x, RunOptions{Delay: chanPlan, ProcFaults: procPlan(), MaxTicks: 500_000})
				if err != nil {
					t.Fatalf("run failed to complete: %v (stab: %v)", err, run.Stabilization)
				}
				if v := ss.VerifySafety(run, x); len(v) > 0 {
					t.Fatalf("SAFETY violated under %s + %s: %v", chanPlan.Name(), run.Stabilization.Plan, v[0])
				}
				if v := ss.VerifyComplete(run, x); len(v) > 0 {
					t.Fatalf("convergence failed under %s: %v", chanPlan.Name(), v[0])
				}
				if st := run.Stabilization; st == nil || !st.Stabilized {
					t.Fatalf("not stabilized: %v", st)
				}
			})
		}
	}
}

// TestUnwrappedViolateUnderProcFaults is the companion failure-mode test:
// the same crash plans that the stabilized wrapper absorbs break every
// unwrapped protocol — the run wedges short of Y = X, and for the burst
// protocols the receiver even writes wrong bits (a prefix violation).
func TestUnwrappedViolateUnderProcFaults(t *testing.T) {
	breaking := []procChaosPlan{procChaosPlans()[1], procChaosPlans()[2]} // crash-r, crash-both
	sawPrefixViolation := false
	for _, s := range chaosSolutions(t) {
		for _, pp := range breaking {
			t.Run(s.String()+"/"+pp.name, func(t *testing.T) {
				x := chaosInput(s, 12)
				run, err := s.Run(x, RunOptions{ProcFaults: pp.mk(), MaxTicks: 100_000})
				complete := err == nil && len(timed.PrefixInvariant(run.Trace, x, true)) == 0
				if complete {
					t.Fatalf("unwrapped %s survived %s — the wrapper is not earning its keep", s, pp.name)
				}
				if len(timed.PrefixInvariant(run.Trace, x, false)) > 0 {
					sawPrefixViolation = true
				}
			})
		}
	}
	if !sawPrefixViolation {
		t.Error("no unwrapped run showed a prefix violation; expected the burst protocols to write wrong bits")
	}
}

// TestStabilizedSafetyUnderCrashForever: a transmitter that never comes
// back forfeits liveness by construction, never safety — and the report
// says so.
func TestStabilizedSafetyUnderCrashForever(t *testing.T) {
	p := chaosParams()
	s, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	ss := Stabilize(s, StabilizeOptions{})
	x := chaosInput(s, 12)
	plan := faults.NewProcPlan(61,
		faults.ProcFault{Proc: sim.ProcTransmitter, From: 60, Crash: true})
	run, err := ss.Run(x, RunOptions{ProcFaults: plan, MaxTicks: 20_000})
	if err == nil {
		t.Fatal("run completed with the transmitter down forever")
	}
	if v := ss.VerifySafety(run, x); len(v) > 0 {
		t.Fatalf("safety violated: %v", v[0])
	}
	if got := len(run.Writes()); got >= len(x) {
		t.Fatalf("wrote all %d bits without a transmitter", got)
	}
	st := run.Stabilization
	if st == nil || st.Stabilized {
		t.Fatalf("unhealed plan reported stabilized: %v", st)
	}
	if st.DownTicks[0] == 0 {
		t.Fatalf("no downtime recorded: %v", st)
	}
}

// TestStabilizedSharedStore: a caller-provided StateStore is actually
// used — construction checkpoints both endpoints into it.
func TestStabilizedSharedStore(t *testing.T) {
	p := chaosParams()
	s, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	ss := Stabilize(s, StabilizeOptions{Store: store})
	if _, _, err := ss.NewPair(chaosInput(s, 2)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"t", "r"} {
		data, ok := store.Load(key)
		if !ok {
			t.Fatalf("no %q checkpoint after construction", key)
		}
		n := 1
		if key == "t" {
			n = 2
		}
		vals, ok := decodeCkpt(data, n)
		if !ok || vals[0] != 1 {
			t.Fatalf("%q checkpoint = %v ok=%v, want initial epoch 1", key, vals, ok)
		}
	}
}

func TestStabilizedString(t *testing.T) {
	p := chaosParams()
	s, _ := Beta(p, 4)
	ss := StabilizeHardened(Harden(s, HardenOptions{}), StabilizeOptions{})
	if got := ss.String(); !strings.Contains(got, "stabilized(hardened(") || !strings.Contains(got, "beta") {
		t.Fatalf("String() = %q", got)
	}
	// At c1=2, c2=3, d=12 (δ1 = 6): RTO ⌈(6·3+12)/2⌉+2 = 17 steps,
	// mismatch limit 64.
	tx, _, err := ss.NewPair(chaosInput(s, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e := tx.(*stableEnd); e.rto != 17 || stMismatchLimit != 64 {
		t.Fatalf("RTO %d steps, mismatch limit %d; want 17, 64", e.rto, stMismatchLimit)
	}
	bad := chaosInput(s, 1)[:1] // not a block multiple
	if _, _, err := ss.NewPair(bad); err == nil && ss.BlockBits > 1 {
		t.Fatal("NewPair accepted a non-block input")
	}
}

// TestMemStoreConcurrentSaveLoad is the -race regression for the shared
// serving store: one MemStore hammered by concurrent sessions (the
// session.Server passes one store to every endpoint goroutine) must
// never tear a checkpoint — every Load returns a value some Save wrote
// in full, pinned by the checksum.
func TestMemStoreConcurrentSaveLoad(t *testing.T) {
	store := NewMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Two goroutines share each key: concurrent writers and
			// readers on the same cell, the data-race shape.
			key := fmt.Sprintf("s%d/t", g%4)
			for i := 0; i < 2000; i++ {
				store.Save(key, encodeCkpt(int64(i), int64(g)))
				data, ok := store.Load(key)
				if !ok {
					t.Errorf("key %q vanished", key)
					return
				}
				if _, ok := decodeCkpt(data, 2); !ok {
					t.Errorf("key %q: torn checkpoint %x", key, data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStabilizedKeyedPair: NewPairKeyed namespaces the persisted keys by
// the given prefix, so many sessions can share one store.
func TestStabilizedKeyedPair(t *testing.T) {
	p := chaosParams()
	s, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	ss := Stabilize(s, StabilizeOptions{Store: store})
	if _, _, err := ss.NewPairKeyed("s9/", chaosInput(s, 2)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"s9/t", "s9/r"} {
		if _, ok := store.Load(key); !ok {
			t.Fatalf("no %q checkpoint after keyed construction", key)
		}
	}
	if _, ok := store.Load("t"); ok {
		t.Fatal("keyed construction leaked the bare \"t\" key")
	}
	if ss.Opts.KeyPrefix != "" {
		t.Fatalf("NewPairKeyed mutated the receiver's options: %q", ss.Opts.KeyPrefix)
	}
}

// TestStabilizedRecoverFromStore: with Recover set, NewPair reloads the
// store's checkpoints instead of writing fresh ones — the transmitter
// resumes its (epoch, cursor) and probes RESYNC, the receiver resumes
// its epoch and volunteers REPORT, and ResumeTape restores the durable
// output-tape length the REPORT must carry.
func TestStabilizedRecoverFromStore(t *testing.T) {
	p := chaosParams()
	s, err := Beta(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	x := chaosInput(s, 3)
	blockBits := int64(s.BlockBits)

	// Plant mid-session checkpoints, as a crashed process would leave.
	ss := Stabilize(s, StabilizeOptions{Store: store})
	t0, r0, err := ss.NewPair(x)
	if err != nil {
		t.Fatal(err)
	}
	te0, re0 := t0.(*stableEnd), r0.(*stableEnd)
	te0.epoch, te0.base = 5, blockBits
	te0.persist()
	re0.epoch = 5
	re0.persist()

	// A restarted process builds with Recover: checkpoints reload.
	rec := Stabilize(s, StabilizeOptions{Store: store, Recover: true})
	t1, r1, err := rec.NewPair(x)
	if err != nil {
		t.Fatal(err)
	}
	te, re := t1.(*stableEnd), r1.(*stableEnd)
	if te.epoch != 5 || te.base != blockBits {
		t.Fatalf("transmitter resumed (epoch=%d base=%d), want (5, %d)", te.epoch, te.base, blockBits)
	}
	if te.inner != nil || te.synced {
		t.Fatal("recovering transmitter should be in the RESYNC handshake, not live")
	}
	if re.epoch != 5 || !re.announce {
		t.Fatalf("receiver resumed (epoch=%d announce=%v), want (5, true)", re.epoch, re.announce)
	}
	re.ResumeTape(2 * blockBits)
	if re.writes != 2*blockBits {
		t.Fatalf("ResumeTape: writes = %d, want %d", re.writes, 2*blockBits)
	}
	te.ResumeTape(99)
	if te.x == nil || te.writes == 99 {
		t.Fatal("ResumeTape must be a no-op on the transmitter")
	}

	// The handshake the pair wakes up into must REPORT the resumed tape
	// length and rewind to a block boundary at or below it.
	if err := te.resync(re.epoch, re.writes); err != nil {
		t.Fatal(err)
	}
	if te.base != 2*blockBits || te.epoch != 6 {
		t.Fatalf("resync rewound to (epoch=%d base=%d), want (6, %d)", te.epoch, te.base, 2*blockBits)
	}

	// Recover against an EMPTY store must read as "know nothing" and
	// still enter the handshake rather than fabricating a session.
	empty := Stabilize(s, StabilizeOptions{Store: NewMemStore(), Recover: true})
	t2, _, err := empty.NewPair(x)
	if err != nil {
		t.Fatal(err)
	}
	if te2 := t2.(*stableEnd); te2.epoch != 0 || te2.inner != nil {
		t.Fatalf("empty-store recovery: epoch=%d inner=%v, want epoch 0 in handshake", te2.epoch, te2.inner)
	}
}
