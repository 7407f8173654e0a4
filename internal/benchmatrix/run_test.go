package benchmatrix

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func testCfg(seed int64) RunConfig {
	return RunConfig{
		Seed:        seed,
		Tick:        20 * time.Microsecond,
		CellTimeout: 30 * time.Second,
		Attempts:    1,
	}
}

// TestRunCellSmoke drives one small cell per protocol/chaos shape end
// to end and checks the record carries everything the acceptance
// criteria name: throughput, allocs, effort-gap and deadline-margin
// percentiles, zero prefix violations.
func TestRunCellSmoke(t *testing.T) {
	cells := []Cell{
		{Proto: "beta", K: 4, Transport: "mem", Chaos: "none", Sessions: 2},
		{Proto: "alpha", Transport: "mem", Chaos: "loss", Sessions: 2},
		{Proto: "gamma", K: 4, Transport: "mem", Chaos: "crash", Sessions: 1},
		{Proto: "beta", K: 4, Transport: "udp", Chaos: "none", Sessions: 2},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.Name(), func(t *testing.T) {
			rec, err := RunCell(context.Background(), cell, testCfg(7))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Violations != 0 {
				t.Fatalf("%d prefix violations", rec.Violations)
			}
			if rec.Completed != cell.Sessions {
				t.Fatalf("completed %d of %d sessions (errors %d)", rec.Completed, cell.Sessions, rec.Errors)
			}
			if rec.GoodputMsgSec <= 0 || rec.WallMS <= 0 {
				t.Errorf("no throughput measured: %+v", rec)
			}
			if rec.Writes != cell.Sessions*rec.BitsPerSession {
				t.Errorf("writes = %d, want %d", rec.Writes, cell.Sessions*rec.BitsPerSession)
			}
			if rec.EffortLowerBound <= 0 {
				t.Errorf("effort lower bound not set")
			}
			if rec.EffortGapMeanTicks == 0 && rec.EffortGapP99Ticks == 0 {
				t.Errorf("effort gap not measured: %+v", rec)
			}
			// A mean of several ticks with a zero p99 means the quantile
			// drowned in the histogram's +Inf bucket (too-narrow bounds).
			if rec.EffortGapMeanTicks > 1 && rec.EffortGapP99Ticks <= 0 {
				t.Errorf("effort gap p99 unresolved: mean=%.1f p99=%d", rec.EffortGapMeanTicks, rec.EffortGapP99Ticks)
			}
			if rec.DeadlineMarginP50Ticks == 0 && rec.DeadlineMarginP99Ticks == 0 {
				t.Errorf("deadline margins not measured: %+v", rec)
			}
			if rec.InputHash == "" || rec.Stack == "" {
				t.Errorf("workload identity missing: hash %q stack %q", rec.InputHash, rec.Stack)
			}
			if (cell.Chaos != "none" || cell.Transport == "udp") && rec.Stack == cell.Proto {
				t.Errorf("chaos/udp cell ran the bare stack %q", rec.Stack)
			}
		})
	}
}

// TestRunDeterminism: the same seed yields byte-identical canonical
// records — the workload fields (inputs, their hash, outcome counts)
// are a pure function of the seed; only the measured fields (wall,
// goodput, allocs, percentiles) may differ between runs.
func TestRunDeterminism(t *testing.T) {
	cells := []Cell{
		{Proto: "beta", K: 4, Transport: "mem", Chaos: "none", Sessions: 2},
		{Proto: "beta", K: 4, Transport: "mem", Chaos: "loss", Sessions: 2},
	}
	run := func(seed int64) []Record {
		f, err := Run(context.Background(), cells, testCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		return f.Cells
	}
	a, b := run(3), run(3)
	for i := range a {
		ca, _ := json.Marshal(a[i].Canonical())
		cb, _ := json.Marshal(b[i].Canonical())
		if string(ca) != string(cb) {
			t.Errorf("cell %s: canonical records differ across runs:\n  %s\n  %s", a[i].Cell.Name(), ca, cb)
		}
	}
	// A different seed must actually change the workload.
	c := run(4)
	if a[0].InputHash == c[0].InputHash {
		t.Errorf("seed 3 and 4 produced the same input hash %s", a[0].InputHash)
	}
}

// TestLessSafe pins the attempt-merge order: violations dominate, then
// lost completions; an equally safe record is not "less safe".
func TestLessSafe(t *testing.T) {
	clean := Record{Completed: 64}
	if !lessSafe(Record{Completed: 64, Violations: 1}, clean) {
		t.Error("violating attempt not ranked less safe")
	}
	if !lessSafe(Record{Completed: 60}, clean) {
		t.Error("incomplete attempt not ranked less safe")
	}
	if lessSafe(clean, Record{Completed: 64, Violations: 1}) {
		t.Error("clean attempt ranked below violating one")
	}
	if lessSafe(clean, clean) {
		t.Error("equal records ranked")
	}
}

// TestRunBestOfAttempts: with Attempts > 1 a fault-free cell still
// yields one coherent record (workload fields intact, sessions counted
// once), while a chaos cell is never repeated.
func TestRunBestOfAttempts(t *testing.T) {
	cfg := testCfg(9)
	cfg.Attempts = 2
	cells := []Cell{
		{Proto: "beta", K: 4, Transport: "mem", Chaos: "none", Sessions: 2},
		{Proto: "beta", K: 4, Transport: "mem", Chaos: "loss", Sessions: 1},
	}
	f, err := Run(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range f.Cells {
		if rec.Completed != rec.Cell.Sessions || rec.Violations != 0 {
			t.Errorf("%s: completed=%d violations=%d, want %d/0",
				rec.Cell.Name(), rec.Completed, rec.Violations, rec.Cell.Sessions)
		}
		if rec.Writes != rec.Cell.Sessions*rec.BitsPerSession {
			t.Errorf("%s: attempt merge corrupted writes: %d", rec.Cell.Name(), rec.Writes)
		}
	}
}

// TestRunAssemblesFile: Run stamps meta and tick and keeps cell order.
func TestRunAssemblesFile(t *testing.T) {
	cells := []Cell{{Proto: "alpha", Transport: "mem", Chaos: "none", Sessions: 1}}
	cfg := testCfg(5)
	cfg.Wall = "2026-08-08T00:00:00Z"
	f, err := Run(context.Background(), cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.Schema != Schema || f.Meta.GoVersion == "" || f.Meta.Wall != cfg.Wall {
		t.Errorf("meta = %+v", f.Meta)
	}
	if f.TickMicros != 20 {
		t.Errorf("tick_us = %v, want 20", f.TickMicros)
	}
	if len(f.Cells) != 1 || f.Cells[0].Cell.Name() != "alpha/mem/none/s1" {
		t.Errorf("cells = %+v", f.Cells)
	}
}
