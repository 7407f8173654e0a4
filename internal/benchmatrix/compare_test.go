package benchmatrix

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkFile(goodput float64, violations, completed, writes int) *File {
	return &File{
		Meta: NewMeta(Schema, ""),
		Cells: []Record{{
			Cell:          Cell{Proto: "beta", K: 4, Transport: "mem", Chaos: "none", Sessions: 64},
			GoodputMsgSec: goodput,
			Violations:    violations,
			Completed:     completed,
			Writes:        writes,
		}},
	}
}

// TestCompareThreshold: a synthetic 15% throughput drop is flagged at
// the default 10% threshold, a 5% drop passes.
func TestCompareThreshold(t *testing.T) {
	old := mkFile(1000, 0, 64, 1536)
	drop15 := mkFile(850, 0, 64, 1536)
	drop5 := mkFile(950, 0, 64, 1536)

	cmp := Compare(old, drop15, CompareOptions{})
	if len(cmp.Regressions) != 1 {
		t.Fatalf("15%% drop: %d regressions, want 1 (%+v)", len(cmp.Regressions), cmp.Deltas)
	}
	if r := cmp.Regressions[0]; !strings.Contains(r.Reason, "goodput dropped") {
		t.Errorf("15%% drop reason = %q", r.Reason)
	}

	cmp = Compare(old, drop5, CompareOptions{})
	if len(cmp.Regressions) != 0 {
		t.Fatalf("5%% drop regressed: %+v", cmp.Regressions)
	}

	// A tightened threshold flips the 5% verdict.
	cmp = Compare(old, drop5, CompareOptions{Threshold: 0.03})
	if len(cmp.Regressions) != 1 {
		t.Fatalf("5%% drop at 3%% threshold: %d regressions, want 1", len(cmp.Regressions))
	}
}

// TestCompareViolationsAlwaysFlag: a new prefix violation regresses the
// cell even when throughput improved.
func TestCompareViolationsAlwaysFlag(t *testing.T) {
	old := mkFile(1000, 0, 64, 1536)
	faster := mkFile(2000, 1, 63, 1536)
	cmp := Compare(old, faster, CompareOptions{})
	if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0].Reason, "violation") {
		t.Fatalf("new violation not flagged: %+v", cmp.Regressions)
	}
}

// TestCompareMissingCell: losing a baseline cell is a regression (lost
// coverage), a brand-new cell is informational.
func TestCompareMissingCell(t *testing.T) {
	old := mkFile(1000, 0, 64, 1536)
	extra := Record{Cell: Cell{Proto: "gamma", K: 4, Transport: "mem", Chaos: "none", Sessions: 64}, GoodputMsgSec: 10}
	newf := &File{Meta: NewMeta(Schema, ""), Cells: []Record{extra}}
	cmp := Compare(old, newf, CompareOptions{})
	if len(cmp.Regressions) != 1 || !cmp.Regressions[0].Missing {
		t.Fatalf("missing baseline cell not flagged: %+v", cmp.Regressions)
	}
	if len(cmp.Added) != 1 {
		t.Fatalf("added cells = %v, want one", cmp.Added)
	}
}

// TestCompareSmallSampleIgnored: cells below MinWrites baseline writes
// are not throughput-gated (their goodput is noise), but violations in
// them still flag.
func TestCompareSmallSampleIgnored(t *testing.T) {
	old := mkFile(1000, 0, 64, 4)
	slow := mkFile(100, 0, 64, 4)
	if cmp := Compare(old, slow, CompareOptions{}); len(cmp.Regressions) != 0 {
		t.Fatalf("tiny cell throughput gated: %+v", cmp.Regressions)
	}
	bad := mkFile(1000, 2, 62, 4)
	if cmp := Compare(old, bad, CompareOptions{}); len(cmp.Regressions) != 1 {
		t.Fatalf("tiny cell violation not gated: %+v", cmp.Regressions)
	}
}

// TestCompareAllocGate: allocs-per-write growth past the alloc
// threshold flags an in-memory fault-free cell; the same growth in a
// UDP or chaos cell (retransmit-count dependent) passes.
func TestCompareAllocGate(t *testing.T) {
	withAllocs := func(f *File, a float64) *File {
		f.Cells[0].AllocsPerWrite = a
		return f
	}
	old := withAllocs(mkFile(1000, 0, 64, 1536), 32)
	grown := withAllocs(mkFile(1000, 0, 64, 1536), 44) // +37.5%
	cmp := Compare(old, grown, CompareOptions{})
	if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0].Reason, "allocs/write grew") {
		t.Fatalf("alloc growth not flagged: %+v", cmp.Regressions)
	}
	// +15% stays under the default 25% threshold.
	mild := withAllocs(mkFile(1000, 0, 64, 1536), 36.8)
	if cmp := Compare(old, mild, CompareOptions{}); len(cmp.Regressions) != 0 {
		t.Fatalf("mild alloc growth flagged: %+v", cmp.Regressions)
	}
	// The same growth in a UDP cell is retransmit noise, not a gate.
	oldUDP, grownUDP := withAllocs(mkFile(1000, 0, 64, 1536), 32), withAllocs(mkFile(1000, 0, 64, 1536), 44)
	oldUDP.Cells[0].Cell.Transport = "udp"
	grownUDP.Cells[0].Cell.Transport = "udp"
	if cmp := Compare(oldUDP, grownUDP, CompareOptions{}); len(cmp.Regressions) != 0 {
		t.Fatalf("udp alloc growth flagged: %+v", cmp.Regressions)
	}
}

// TestCompareChaosCellsNotGoodputGated: chaos cells' wall time is
// retransmission-timer noise, so even a huge goodput drop passes — but
// a violation or a lost completion in the same cell still flags.
func TestCompareChaosCellsNotGoodputGated(t *testing.T) {
	chaos := func(goodput float64, violations, completed int) *File {
		f := mkFile(goodput, violations, completed, 1536)
		f.Cells[0].Cell.Chaos = "loss"
		return f
	}
	old := chaos(1000, 0, 64)
	if cmp := Compare(old, chaos(200, 0, 64), CompareOptions{}); len(cmp.Regressions) != 0 {
		t.Fatalf("chaos cell goodput gated: %+v", cmp.Regressions)
	}
	if cmp := Compare(old, chaos(1000, 1, 63), CompareOptions{}); len(cmp.Regressions) != 1 {
		t.Fatalf("chaos cell violation not gated: %+v", cmp.Regressions)
	}
	if cmp := Compare(old, chaos(1000, 0, 60), CompareOptions{}); len(cmp.Regressions) != 1 {
		t.Fatalf("chaos cell lost completions not gated: %+v", cmp.Regressions)
	}
}

// TestLoadRejectsBadBaselines: malformed JSON, an old/foreign schema
// tag, and an empty cell list are all rejected with errors that say how
// to regenerate the artifact.
func TestLoadRejectsBadBaselines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := Load(write("garbage.json", "{not json")); err == nil {
		t.Error("malformed baseline accepted")
	}
	_, err := Load(write("old.json", `{"meta":{"schema":"rstp-bench-matrix/v0"},"cells":[{"proto":"beta"}]}`))
	if err == nil || !strings.Contains(err.Error(), "rstp-bench-matrix/v1") || !strings.Contains(err.Error(), "regenerate") {
		t.Errorf("old-schema baseline error = %v, want a schema mismatch naming the expected tag and the regenerate command", err)
	}
	// A different emitter's artifact (rstpserve's summary shape) has no
	// meta.schema at all — same rejection path.
	if _, err := Load(write("serve.json", `{"schema":"rstp-bench-serve/v1","sessions":200}`)); err == nil {
		t.Error("foreign artifact accepted")
	}
	if _, err := Load(write("empty.json", `{"meta":{"schema":"rstp-bench-matrix/v1"},"cells":[]}`)); err == nil {
		t.Error("empty baseline accepted")
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing baseline accepted")
	}

	// Round trip: what Write produced, Load accepts.
	good := mkFile(1000, 0, 64, 1536)
	p := filepath.Join(dir, "good.json")
	if err := good.Write(p); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cells) != 1 || loaded.Meta.Schema != Schema {
		t.Errorf("round trip lost data: %+v", loaded)
	}
	if loaded.Meta.GoVersion == "" || loaded.Meta.GOMAXPROCS == 0 {
		t.Errorf("meta not stamped: %+v", loaded.Meta)
	}
}
