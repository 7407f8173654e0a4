package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchSave drives the Save path over a fixed key set with ~64-byte
// checkpoints — the shape the stabilized layer produces.
func benchSave(b *testing.B, fs FS) {
	dir := b.TempDir()
	s, err := Open(dir, Options{FS: fs})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 64)
	keys := [8]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("s%d/ckpt", i)
	}
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Save(keys[i&7], val)
	}
}

// BenchmarkJournalSaveSync is the serving configuration: every append
// is an O_SYNC write, so this measures what durability actually costs
// per checkpoint on this machine's storage.
func BenchmarkJournalSaveSync(b *testing.B) { benchSave(b, DiskFS{}) }

// BenchmarkJournalSaveNoSync isolates the journal's own overhead
// (framing, CRC, compaction accounting) from the device flush.
func BenchmarkJournalSaveNoSync(b *testing.B) { benchSave(b, DiskFS{NoSync: true}) }

// BenchmarkJournalReplay measures recovery: opening a journal of 4096
// records (512 live keys).
func BenchmarkJournalReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{FS: DiskFS{NoSync: true}, CompactBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	for i := 0; i < 4096; i++ {
		s.Save(fmt.Sprintf("s%d/ckpt", i&511), val)
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{FS: DiskFS{NoSync: true}})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Replayed != 4096 {
			b.Fatalf("replayed %d records, want 4096", st.Replayed)
		}
		s.Close()
	}
}

// TestJournalBenchGuard runs the journal benchmarks programmatically
// and — when BENCH_JOURNAL_OUT names a file — writes the
// BENCH_journal.json artifact CI archives alongside BENCH_obs.json.
func TestJournalBenchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard runs in the full suite and the dedicated CI step")
	}
	out := os.Getenv("BENCH_JOURNAL_OUT")
	run := func(name string, fn func(*testing.B)) map[string]any {
		res := testing.Benchmark(fn)
		if res.N == 0 {
			t.Skipf("%s: benchmarks disabled in this run", name)
		}
		return map[string]any{
			"benchmark":     name,
			"iterations":    res.N,
			"ns_per_op":     res.NsPerOp(),
			"allocs_per_op": res.AllocsPerOp(),
			"bytes_per_op":  res.AllocedBytesPerOp(),
		}
	}
	results := []map[string]any{
		run("BenchmarkJournalSaveNoSync", BenchmarkJournalSaveNoSync),
		run("BenchmarkJournalReplay", BenchmarkJournalReplay),
	}
	if out == "" {
		return
	}
	// The O_SYNC number is the headline of the artifact but too slow for
	// every full-suite run; measure it only when exporting.
	results = append(results, run("BenchmarkJournalSaveSync", BenchmarkJournalSaveSync))
	payload := map[string]any{
		"schema":  "rstp-bench-journal/v1",
		"meta":    obs.NewMeta("rstp-bench-journal/v1", time.Now().UTC().Format(time.RFC3339)),
		"results": results,
	}
	raw, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		t.Fatalf("writing %s: %v", out, err)
	}
	t.Logf("wrote %s", out)
}
