package benchmatrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/session"
	"repro/internal/stack"
	"repro/internal/transport"
	"repro/internal/wire"
)

// RunConfig shapes a matrix run. The zero value is usable: serving
// defaults for the timing constants, 50µs ticks, 24-bit inputs.
type RunConfig struct {
	// Seed is the base seed; each cell derives its own by hashing its
	// Name into it, so a -cells filter never shifts another cell's
	// workload.
	Seed int64
	// Tick is the wall-clock length of one model tick (default 50µs,
	// rstpserve's bench setting).
	Tick time.Duration
	// Params are the timing constants (default c1=2 c2=3 d=12).
	Params rstp.Params
	// MinBits is the minimum input length per session, rounded up to a
	// whole number of protocol blocks (default 24, rstpserve's default
	// β(4) workload: four 6-bit blocks).
	MinBits int
	// MaxConc caps concurrently open sessions per cell (default
	// min(sessions, 512), rstpserve's rule).
	MaxConc int
	// CellTimeout bounds one cell's wall time at 64 sessions; larger
	// cells scale it linearly (default 60s).
	CellTimeout time.Duration
	// Attempts runs each throughput-gated (fault-free) cell this many
	// times and keeps the best-goodput record (default 3, minimum 1).
	// The workload is identical across attempts — only the measured
	// fields differ — so "best" is the machine's demonstrated capability
	// with scheduler noise stripped: a real regression is slow on every
	// attempt, a noisy run is not. Chaos cells are never repeated; their
	// goodput is retransmission-timer noise and is not gated.
	Attempts int
	// Wall stamps File.Meta (caller's clock; see Meta.Wall).
	Wall string
	// Logf, when non-nil, receives one progress line per cell.
	Logf func(format string, args ...any)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tick <= 0 {
		c.Tick = 50 * time.Microsecond
	}
	if c.Params == (rstp.Params{}) {
		c.Params = rstp.Params{C1: 2, C2: 3, D: 12}
	}
	if c.MinBits <= 0 {
		c.MinBits = 24
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = 60 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	return c
}

// lessSafe orders two attempt records of the same cell by safety: more
// prefix violations, then fewer completed sessions. Run keeps the least
// safe attempt regardless of its speed.
func lessSafe(a, b Record) bool {
	if a.Violations != b.Violations {
		return a.Violations > b.Violations
	}
	return a.Completed < b.Completed
}

// cellSeed derives a cell's private seed from the base seed and the
// cell's stable name, so every cell's workload is independent of which
// other cells run beside it.
func cellSeed(base int64, c Cell) int64 {
	return int64(fnvSum([]byte(c.Name()))^uint64(base)) & math.MaxInt64
}

// fnvSum is FNV-64a, the same dependency-free hash the stabilized
// layer's checkpoints use.
func fnvSum(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Run executes every cell in order and assembles the committed artifact.
// Cells run strictly sequentially so one cell's goroutines and GC debris
// never pollute another's timing or allocation counts.
func Run(ctx context.Context, cells []Cell, cfg RunConfig) (*File, error) {
	cfg = cfg.withDefaults()
	f := &File{
		Meta:       NewMeta(Schema, cfg.Wall),
		TickMicros: float64(cfg.Tick) / float64(time.Microsecond),
	}
	for _, cell := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attempts := 1
		if goodputGated(cell) {
			attempts = cfg.Attempts
		}
		var rec Record
		for a := 0; a < attempts; a++ {
			r, err := RunCell(ctx, cell, cfg)
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", cell.Name(), err)
			}
			switch {
			case a == 0 || lessSafe(r, rec):
				// A violation or lost completion on ANY attempt survives
				// into the record — a flaky safety failure must not hide
				// behind a clean rerun.
				rec = r
			case lessSafe(rec, r):
				// rec already holds the worst attempt; keep it.
			case r.GoodputMsgSec > rec.GoodputMsgSec:
				// Equally safe: keep the best-goodput attempt, the
				// machine's demonstrated capability with noise stripped.
				rec = r
			}
		}
		if cfg.Logf != nil {
			cfg.Logf("%-22s goodput=%9.0f msg/s effort_gap_mean=%7.1f ticks margin_p99=%4d completed=%d/%d violations=%d",
				cell.Name(), rec.GoodputMsgSec, rec.EffortGapMeanTicks, rec.DeadlineMarginP99Ticks,
				rec.Completed, cell.Sessions, rec.Violations)
		}
		f.Cells = append(f.Cells, rec)
	}
	return f, nil
}

// chaosClauses renders a chaos plan name into fault clauses. Windows
// are in ticks from cell start. "loss" is sustained 15% random loss for
// the whole run; "burst" is a dense loss+duplication window early in
// the run; "crash" is a total blackout window — the channel-level
// rendering of a crashed hop that later restarts.
func chaosClauses(chaos string) ([]faults.Fault, error) {
	const forever = int64(1) << 40
	switch chaos {
	case "none":
		return nil, nil
	case "loss":
		return []faults.Fault{{From: 0, To: forever, Drop: 0.15}}, nil
	case "burst":
		return []faults.Fault{{From: 300, To: 900, Drop: 0.5, Dup: 0.2}}, nil
	case "crash":
		return []faults.Fault{{From: 300, To: 700, Blackout: true}}, nil
	default:
		return nil, fmt.Errorf("unknown chaos plan %q", chaos)
	}
}

// RunCell executes one cell: a fresh clock, transport, obs registry and
// session pipe, the cell's session count driven to completion, and the
// registry's histograms reduced into one Record. Construction failures
// return an error; a session that merely fails to finish inside the
// deadline is counted in the record instead (the gate flags it).
func RunCell(ctx context.Context, cell Cell, cfg RunConfig) (Record, error) {
	cfg = cfg.withDefaults()
	p := cfg.Params
	seed := cellSeed(cfg.Seed, cell)
	rec := Record{Cell: cell, Seed: seed}

	// Per-cell registry isolation: every cell gets a fresh registry, so
	// its histograms and counters cover exactly this cell's traffic.
	reg := obs.NewRegistry()

	// The stack: the bare family for fault-free in-memory cells, the
	// hardened wrapper for chaos cells and for every UDP cell (the matrix
	// measures what the serving stack ships under faults; a bare protocol
	// under loss simply never completes, and a real socket drops
	// datagrams under 64-session load — the paper's no-loss channel axiom
	// does not survive a kernel buffer). The rateless family is never
	// hardened: loss tolerance is the code's own property, and its cells
	// exist to measure exactly that against the hardened retransmission
	// rows. The seed pins the rateless per-block symbol streams to the
	// cell.
	st, err := stack.Build(p, stack.Spec{
		Proto:    cell.Proto,
		K:        cell.K,
		Harden:   cell.Proto != "rateless" && (cell.Chaos != "none" || cell.Transport == "udp"),
		Seed:     seed,
		Registry: reg,
	})
	if err != nil {
		return rec, err
	}
	clauses, err := chaosClauses(cell.Chaos)
	if err != nil {
		return rec, err
	}

	clock := transport.NewClock(cfg.Tick)
	trans, _, err := transport.Open(cell.Transport, clock, p.D, seed, clauses)
	if err != nil {
		return rec, err
	}
	transport.Instrument(reg, trans)

	maxConc := cfg.MaxConc
	if maxConc <= 0 {
		maxConc = cell.Sessions
		if maxConc > 512 {
			maxConc = 512
		}
	}
	pipe, err := session.NewPipe(session.Config{
		Solution:         st.Builder,
		Params:           p,
		Transport:        trans,
		Clock:            clock,
		MaxSessions:      maxConc,
		IdleTicks:        -1, // the harness evicts each session explicitly
		Obs:              reg,
		EffortLowerBound: st.Lower,
	})
	if err != nil {
		trans.Close()
		return rec, err
	}
	defer pipe.Close()

	// Seeded inputs, rounded up to whole blocks; the hash pins the
	// workload identity for the determinism test and for Compare.
	blocks := (cfg.MinBits + st.BlockBits - 1) / st.BlockBits
	bits := blocks * st.BlockBits
	rng := rand.New(rand.NewSource(seed))
	inputs := make([][]wire.Bit, cell.Sessions)
	hash := uint64(14695981039346656037)
	for i := range inputs {
		inputs[i] = wire.RandomBits(bits, rng.Uint64)
		for _, b := range inputs[i] {
			hash ^= uint64(b) + 1
			hash *= 1099511628211
		}
	}
	rec.BitsPerSession = bits
	rec.InputHash = fmt.Sprintf("%016x", hash)
	rec.Stack = st.Builder.String()
	rec.EffortLowerBound = st.Lower

	// Larger cells get proportionally more wall time: the budget is per
	// concurrency wave, not per cell.
	timeout := cfg.CellTimeout
	if waves := (cell.Sessions + maxConc - 1) / maxConc; waves > 1 {
		timeout = time.Duration(waves) * cfg.CellTimeout
	}
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	type outcome struct {
		res session.TransferResult
		err error
	}
	results := make([]outcome, cell.Sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pipe.Transfer(cctx, inputs[i])
			results[i] = outcome{res: res, err: err}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	for _, o := range results {
		if o.err != nil {
			rec.Errors++
		}
		if o.res.Violation != "" {
			rec.Violations++
		}
		if o.res.Completed {
			rec.Completed++
		} else {
			rec.Incomplete++
		}
		rec.Writes += o.res.RX.Writes
		rec.Sends += o.res.TX.Sends + o.res.RX.Sends
		rec.Deliveries += o.res.TX.Deliveries + o.res.RX.Deliveries
	}
	rec.WallMS = float64(wall) / float64(time.Millisecond)
	if secs := wall.Seconds(); secs > 0 {
		rec.SessionsPerSec = float64(rec.Completed) / secs
		rec.GoodputMsgSec = float64(rec.Writes) / secs
	}
	if rec.Writes > 0 {
		rec.AllocsPerWrite = float64(after.Mallocs-before.Mallocs) / float64(rec.Writes)
	}

	snap := reg.Snapshot()
	if h, ok := snap.Histograms["rstp_interwrite_ticks"]; ok && h.Count > 0 {
		rec.EffortMeanTicks = h.Mean
	}
	if h, ok := snap.Histograms["rstp_effort_gap_ticks"]; ok && h.Count > 0 {
		rec.EffortGapMeanTicks = h.Mean
		rec.EffortGapP99Ticks = obs.QuantileOrFloor(h, 0.99)
	}
	if h, ok := snap.Histograms["rstp_deadline_margin_ticks"]; ok && h.Count > 0 {
		rec.DeadlineMarginP50Ticks = obs.QuantileOrFloor(h, 0.50)
		rec.DeadlineMarginP99Ticks = obs.QuantileOrFloor(h, 0.99)
	}
	return rec, nil
}
