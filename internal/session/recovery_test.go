package session

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ioa"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stabilizedOver builds the serving recovery stack: a stabilized beta
// checkpointing into store, in Recover mode (the -store-dir
// configuration: endpoints always restart from whatever the store
// holds; an empty store reads as "know nothing" and costs one handshake
// round).
func stabilizedOver(t *testing.T, store rstp.StateStore) rstp.StabilizedSolution {
	t.Helper()
	return rstp.Stabilize(mustBeta(t, 4), rstp.StabilizeOptions{Store: store, Recover: true})
}

// openJournal opens a journal store in dir over the given filesystem,
// without O_SYNC (the tests' durability faults are injected, not real).
func openJournal(t *testing.T, dir string, fs journal.FS) *journal.Store {
	t.Helper()
	st, err := journal.Open(dir, journal.Options{FS: fs})
	if err != nil {
		t.Fatalf("journal.Open(%s): %v", dir, err)
	}
	return st
}

// recoveryPipe assembles a Pipe whose sessions persist into store.
func recoveryPipe(t *testing.T, store rstp.StateStore, reg *obs.Registry) *Pipe {
	t.Helper()
	sol := stabilizedOver(t, store)
	clock := transport.NewClock(50 * time.Microsecond)
	mem := transport.NewMem(clock, transport.MemOptions{D: testParams().D, Buffer: 1 << 14})
	cfg := testConfig(t, sol, mem, clock)
	cfg.Store = store
	cfg.Obs = reg
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// TestSessionStoreKeysNamespaced runs one persistent transfer end to end
// and checks the durable layout: per-session checkpoints under "s<ID>/"
// and the output tape under "s<ID>/y" holding exactly X.
func TestSessionStoreKeysNamespaced(t *testing.T) {
	store := openJournal(t, t.TempDir(), journal.DiskFS{NoSync: true})
	defer store.Close()
	pipe := recoveryPipe(t, store, nil)
	defer pipe.Close()

	x := inputFor(t, mustBeta(t, 4), 4, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := pipe.TransferID(ctx, 1, x)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: writes=%d of %d, violation=%q", res.RX.Writes, len(x), res.Violation)
	}
	for _, key := range []string{"s1/t", "s1/r", "s1/y"} {
		if _, ok := store.Load(key); !ok {
			t.Errorf("store missing key %q after a persistent transfer", key)
		}
	}
	tape, _ := store.Load("s1/y")
	if len(tape) != len(x) {
		t.Fatalf("durable tape holds %d messages, want %d", len(tape), len(x))
	}
	for i, c := range tape {
		if wire.Bit(c) != x[i] {
			t.Fatalf("durable tape[%d] = %d, want %v", i, c, x[i])
		}
	}
}

// crashRestartOnce is one cell of the sweep: serve session id=1 against
// a journal in dir over fs, stop the whole stack once the receiver has
// written at least minWrites messages (an abrupt stop: no eviction, no
// drain — the in-process analogue of SIGKILL, with fs deciding what
// survived), then restart against the same directory on a clean
// filesystem and finish the transfer. Returns the restarted result.
func crashRestartOnce(t *testing.T, dir string, fs journal.FS, x []wire.Bit, minWrites int) TransferResult {
	t.Helper()

	// Incarnation one: killed mid-transfer.
	store1 := openJournal(t, dir, fs)
	pipe1 := recoveryPipe(t, store1, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, err := pipe1.Dialer.StartID(ctx, 1, x)
	if err != nil {
		t.Fatalf("first incarnation start: %v", err)
	}
	if _, err := pipe1.Server.WaitWrites(ctx, 1, minWrites); err != nil {
		t.Fatalf("first incarnation never reached %d writes: %v", minWrites, err)
	}
	_ = conn
	pipe1.Close()
	store1.Close()

	// Incarnation two: same directory, clean filesystem, same session ID.
	store2 := openJournal(t, dir, journal.DiskFS{NoSync: true})
	defer store2.Close()
	pipe2 := recoveryPipe(t, store2, nil)
	defer pipe2.Close()
	res, err := pipe2.TransferID(ctx, 1, x)
	if err != nil {
		t.Fatalf("restarted transfer: %v", err)
	}
	return res
}

// TestCrashRestartSweep is the issue's acceptance sweep, in-process: a
// serving stack is killed mid-transfer and restarted against the same
// store directory across 32 seeds. A quarter of the seeds additionally
// crash the journal's own write stream mid-record (FaultFS CrashAtByte),
// so recovery must also replay past a torn checkpoint tail. Every
// restart must finish with zero prefix violations and Y = X.
func TestCrashRestartSweep(t *testing.T) {
	seeds := int64(32)
	if testing.Short() {
		seeds = 8
	}
	beta := mustBeta(t, 4)
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			x := inputFor(t, beta, 4, seed)
			var fs journal.FS = journal.DiskFS{NoSync: true}
			if seed%4 == 0 {
				// Tear the journal itself mid-write at a seed-dependent
				// offset: the checkpoint being saved when the "process
				// died" is torn on disk, and everything after it is lost.
				fs = journal.NewFaultFS(journal.DiskFS{NoSync: true},
					journal.Plan{Seed: seed, CrashAtByte: 64 + seed*53})
			}
			res := crashRestartOnce(t, t.TempDir(), fs, x, len(x)/2)
			if res.Violation != "" {
				t.Fatalf("prefix violation after restart: %s", res.Violation)
			}
			if !res.Completed {
				t.Fatalf("restarted session incomplete: writes=%d of %d", res.RX.Writes, len(x))
			}
			if got := wire.BitsToString(res.RX.Y); got != wire.BitsToString(x) {
				t.Fatalf("restarted Y != X:\nY %s\nX %s", got, wire.BitsToString(x))
			}
		})
	}
}

// TestCrashRestartResumesTape pins the mechanism, not just the outcome:
// after a clean-journal kill with at least half the tape written, the
// restarted receiver must RESUME (Report.Resumed > 0) rather than start
// over, and the resumed prefix must never be rewritten.
func TestCrashRestartResumesTape(t *testing.T) {
	beta := mustBeta(t, 4)
	x := inputFor(t, beta, 4, 3)
	res := crashRestartOnce(t, t.TempDir(), journal.DiskFS{NoSync: true}, x, len(x)/2)
	if res.Violation != "" || !res.Completed {
		t.Fatalf("restart failed: completed=%v violation=%q", res.Completed, res.Violation)
	}
	if res.RX.Resumed < len(x)/2 {
		t.Fatalf("restarted receiver resumed %d messages, want >= %d (did recovery start over?)",
			res.RX.Resumed, len(x)/2)
	}
	if res.RX.Writes != len(x) {
		t.Fatalf("restarted writes = %d, want %d", res.RX.Writes, len(x))
	}
}

// TestCrashRestartCompletedSession restarts a session whose transfer had
// already fully completed before the kill: the recovery handshake must
// converge on "nothing to do" without rewriting or extending the tape.
func TestCrashRestartCompletedSession(t *testing.T) {
	beta := mustBeta(t, 4)
	x := inputFor(t, beta, 2, 9)
	res := crashRestartOnce(t, t.TempDir(), journal.DiskFS{NoSync: true}, x, len(x))
	if res.Violation != "" || !res.Completed {
		t.Fatalf("restart of completed session failed: completed=%v violation=%q writes=%d",
			res.Completed, res.Violation, res.RX.Writes)
	}
	if res.RX.Resumed != len(x) {
		t.Fatalf("resumed %d, want the full tape %d", res.RX.Resumed, len(x))
	}
}

// TestConcurrentSessionsSharedJournal hammers one journal store from
// many concurrent persistent sessions — the -race guard for the serving
// configuration (satellite: shared-store concurrency).
func TestConcurrentSessionsSharedJournal(t *testing.T) {
	store := openJournal(t, t.TempDir(), journal.DiskFS{NoSync: true})
	defer store.Close()
	reg := obs.NewRegistry()
	pipe := recoveryPipe(t, store, reg)
	defer pipe.Close()

	beta := mustBeta(t, 4)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := inputFor(t, beta, 2, int64(100+i))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := pipe.Transfer(ctx, x)
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if !res.Completed {
				errs <- fmt.Errorf("session %d incomplete: %q", i, res.Violation)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := store.Stats(); st.Keys < 3*n {
		t.Errorf("store holds %d keys, want >= %d (t, r, y per session)", st.Keys, 3*n)
	}
	if store.LastErr() != nil {
		t.Errorf("journal error under concurrent sessions: %v", store.LastErr())
	}
}

// slowStore delays every save by a fixed wall-clock time, standing in for
// a synchronous fsync that outlasts many ticks.
type slowStore struct {
	*rstp.MemStore
	delay time.Duration
}

func (s slowStore) Save(key string, data []byte) {
	time.Sleep(s.delay)
	s.MemStore.Save(key, data)
}

// TestSlowTapeSaveLosesNoFrames pins the loop's behaviour while a durable
// tape save is in flight: arrivals keep being applied, so a save that
// lasts many step gaps drops no frames, and the bare β receiver, which
// cannot recover a lost packet, still decodes Y = X.
func TestSlowTapeSaveLosesNoFrames(t *testing.T) {
	beta := mustBeta(t, 4)
	clock := transport.NewClock(50 * time.Microsecond)
	mem := transport.NewMem(clock, transport.MemOptions{D: testParams().D, Buffer: 1 << 14})
	cfg := testConfig(t, beta, mem, clock)
	cfg.Store = slowStore{rstp.NewMemStore(), 5 * time.Millisecond}
	cfg.IdleTicks = -1 // the receiver's writes outlast the last arrival by far
	pipe, err := NewPipe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()

	x := inputFor(t, beta, 4, 21)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := pipe.Transfer(ctx, x)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if res.RX.Overflow != 0 || res.Violation != "" || !res.Completed {
		t.Fatalf("slow saves cost frames: overflow=%d writes=%d of %d violation=%q",
			res.RX.Overflow, res.RX.Writes, len(x), res.Violation)
	}
}

// TestStartIDCollisionAndAllocator covers the explicit-ID path: reusing
// an open ID fails, and the automatic allocator never collides with
// explicitly started sessions.
func TestStartIDCollisionAndAllocator(t *testing.T) {
	store := openJournal(t, t.TempDir(), journal.DiskFS{NoSync: true})
	defer store.Close()
	pipe := recoveryPipe(t, store, nil)
	defer pipe.Close()

	beta := mustBeta(t, 4)
	x := inputFor(t, beta, 2, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	conn, err := pipe.Dialer.StartID(ctx, 7, x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Dialer.StartID(ctx, 7, x); err == nil {
		t.Fatal("second StartID under an open ID must fail")
	}
	if _, err := pipe.Dialer.StartID(ctx, 0, x); err == nil {
		t.Fatal("StartID(0) must fail")
	}
	auto, err := pipe.Dialer.Start(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if auto.ID() <= 7 {
		t.Fatalf("allocator issued %d after explicit 7 — collision risk", auto.ID())
	}
	auto.Close()
	conn.Close()
	// A finished ID is used up as well: a second session under it would be
	// answered from the first one's finished report.
	if _, err := pipe.Dialer.StartID(ctx, 7, x); err == nil {
		t.Fatal("StartID under a finished ID must fail")
	}
	first, err := pipe.TransferID(ctx, 20, x)
	if err != nil || !first.Completed {
		t.Fatalf("first transfer under 20: err=%v completed=%v", err, first.Completed)
	}
	if again, err := pipe.TransferID(ctx, 20, x); err == nil || again.Completed {
		t.Fatalf("second transfer under finished ID 20: err=%v completed=%v", err, again.Completed)
	}
}

// gateStore holds the first output-tape save until open is called,
// signalling started when that save begins.
type gateStore struct {
	*rstp.MemStore
	started, release chan struct{}
	held, opened     sync.Once
}

func newGateStore() *gateStore {
	return &gateStore{MemStore: rstp.NewMemStore(), started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateStore) Save(key string, data []byte) {
	if strings.HasSuffix(key, "/y") {
		g.held.Do(func() {
			close(g.started)
			<-g.release
		})
	}
	g.MemStore.Save(key, data)
}

// open releases the held save. Idempotent, so a test can also defer it:
// a failed check must not leave Close waiting on the held save.
func (g *gateStore) open() { g.opened.Do(func() { close(g.release) }) }

// TestEvictAndCloseWaitForTapeSave pins synchronous retirement against a
// durable save in flight: Evict and Close return only once the save has
// landed, and the final report's tape is both a prefix of X and exactly
// what the store holds.
func TestEvictAndCloseWaitForTapeSave(t *testing.T) {
	for _, op := range []string{"evict", "close"} {
		t.Run(op, func(t *testing.T) {
			beta := mustBeta(t, 4)
			store := newGateStore()
			cfg, _ := memConfig(t, beta, nil)
			cfg.Store = store
			cfg.IdleTicks = -1
			pipe, err := NewPipe(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.Close()
			defer store.open()
			x := inputFor(t, beta, 4, 21)
			conn, err := pipe.Dialer.Start(context.Background(), x)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-store.started:
			case <-time.After(10 * time.Second):
				t.Fatal("no tape save started")
			}
			returned := make(chan Report, 1)
			go func() {
				if op == "close" {
					pipe.Server.Close()
				}
				rep, _ := pipe.Server.Evict(conn.ID())
				returned <- rep
			}()
			select {
			case <-returned:
				t.Fatalf("%s returned while a tape save was in flight", op)
			case <-time.After(20 * time.Millisecond):
			}
			store.open()
			var rep Report
			select {
			case rep = <-returned:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s never returned after the save landed", op)
			}
			if !rep.Finished || rep.Writes == 0 {
				t.Fatalf("final report: finished=%v writes=%d", rep.Finished, rep.Writes)
			}
			if v := PrefixCheck(x, rep.Y); v != "" {
				t.Fatalf("final tape not a prefix of X: %s", v)
			}
			tape, _ := store.Load(tapeKey(conn.ID()))
			if got, want := wire.BitsToString(decodeTape(tape)), wire.BitsToString(rep.Y); got != want {
				t.Fatalf("report tape %s, durable tape %s", want, got)
			}
		})
	}
}

// writeOnce is a receiver automaton that accepts every delivery and,
// once armed, writes a single 0.
type writeOnce struct{ armed, wrote bool }

func (a *writeOnce) Name() string { return "r" }

func (a *writeOnce) Classify(act ioa.Action) ioa.Class {
	if _, ok := act.(wire.Recv); ok {
		return ioa.ClassInput
	}
	return ioa.ClassOutput
}

func (a *writeOnce) NextLocal() (ioa.Action, bool) {
	return wire.Write{M: 0}, a.armed && !a.wrote
}

func (a *writeOnce) Apply(act ioa.Action) error {
	if _, ok := act.(wire.Write); ok {
		a.wrote = true
	}
	return nil
}

type writeOnceBuilder struct{}

func (writeOnceBuilder) NewPair([]wire.Bit) (t, r ioa.Automaton, err error) {
	return &writeOnce{}, &writeOnce{}, nil
}

func (writeOnceBuilder) String() string { return "write-once" }

// TestIdleEvictionWaitsForTapeSave pins that a step which starts a tape
// save defers idle eviction until the save lands: a receiver long idle
// at the moment of its write stays live while the save is in flight,
// and is evicted afterwards with the write durable.
func TestIdleEvictionWaitsForTapeSave(t *testing.T) {
	store := newGateStore()
	cfg, mem := memConfig(t, writeOnceBuilder{}, nil)
	cfg.Store = store
	cfg.IdleTicks = 1000
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	defer srv.Close()
	defer store.open()
	srv.route(wire.Frame{Session: 1, Dir: wire.TtoR, Seq: 1, P: wire.DataPacket(1)})
	// Step the receiver by hand, under the side lock, with its last
	// arrival backdated past IdleTicks: the step writes, and the idle
	// check that follows it must wait for the save.
	srv.mu.Lock()
	ep := srv.active[1]
	ep.auto.(*writeOnce).armed = true
	ep.lastActivity -= 2 * cfg.IdleTicks
	live := srv.advance(ep)
	evicted := ep.evicted
	srv.mu.Unlock()
	if !live || evicted {
		t.Fatal("receiver evicted idle while its tape save was in flight")
	}
	store.open()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, _ := srv.Snapshot(1)
		if rep.Finished {
			if !rep.Evicted || rep.Writes != 1 {
				t.Fatalf("final report: evicted=%v writes=%d, want an idle eviction after 1 write", rep.Evicted, rep.Writes)
			}
			tape, _ := store.Load(tapeKey(1))
			if got, want := wire.BitsToString(decodeTape(tape)), wire.BitsToString(rep.Y); got != want {
				t.Fatalf("report tape %s, durable tape %s", want, got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("receiver never evicted after its save landed")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResumedMetric checks the observability wiring: a restarted
// session increments rstp_sessions_resumed_total.
func TestResumedMetric(t *testing.T) {
	dir := t.TempDir()
	beta := mustBeta(t, 4)
	x := inputFor(t, beta, 4, 13)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	store1 := openJournal(t, dir, journal.DiskFS{NoSync: true})
	pipe1 := recoveryPipe(t, store1, nil)
	conn, err := pipe1.Dialer.StartID(ctx, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe1.Server.WaitWrites(ctx, 1, len(x)/2); err != nil {
		t.Fatal(err)
	}
	_ = conn
	pipe1.Close()
	store1.Close()

	store2 := openJournal(t, dir, journal.DiskFS{NoSync: true})
	defer store2.Close()
	reg := obs.NewRegistry()
	pipe2 := recoveryPipe(t, store2, reg)
	defer pipe2.Close()
	if _, err := pipe2.TransferID(ctx, 1, x); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["rstp_sessions_resumed_total"]; got != 1 {
		t.Fatalf("rstp_sessions_resumed_total = %d, want 1", got)
	}
}
