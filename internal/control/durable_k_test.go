package control

import (
	"context"
	"testing"

	"repro/internal/journal"
	"repro/internal/session"
)

// TestDurableKSurvivesRestart is the regression test for the ROADMAP
// gap this PR closes: with a Store configured, the k a session is
// admitted under is persisted ("s<id>/k") and a restarted controller —
// even one whose current default k differs — resumes the session under
// the recorded k instead of collapsing to the configured one.
func TestDurableKSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	b4, b8 := fakeBuilder{"beta(k=4)"}, fakeBuilder{"beta(k=8)"}
	ctx := context.Background()

	// First incarnation: only k=8 on offer, so session 1 records k=8.
	s1, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := newCtl(t, func(cfg *Config) {
		cfg.Candidates = []Candidate{{Proto: "beta", K: 8, Builder: b8, Upper: 9}}
		cfg.Store = s1
	})
	if err := c1.Admit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := c1.BuilderFor(1); got != session.PairBuilder(b8) {
		t.Fatalf("first run handed out %v, want the k=8 builder", got)
	}
	if raw, ok := s1.Load("s1/k"); !ok || string(raw) != "beta(k=8)" {
		t.Fatalf("store records %q (ok=%v) under s1/k, want \"beta(k=8)\"", raw, ok)
	}
	s1.Close()

	// "Kill-restart": reopen the directory under a controller that now
	// defaults to k=4. Without the persisted record session 1 would be
	// reconstructed under 4, orphaning its k=8 protocol state.
	s2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCtl(t, func(cfg *Config) {
		cfg.Candidates = []Candidate{{Proto: "beta", K: 4, Builder: b4, Upper: 16}, {Proto: "beta", K: 8, Builder: b8, Upper: 9}}
		cfg.Store = s2
	})
	if err := c2.Admit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(1); got != session.PairBuilder(b8) {
		t.Fatalf("restart resumed session 1 with %v, want the recorded k=8 builder", got)
	}
	if st := c2.State(); st.KHistogram["beta(k=8)"] != 1 {
		t.Errorf("restart k histogram = %v, want one admission at k=8", st.KHistogram)
	}
	// A brand-new session still follows the current selection.
	if err := c2.Admit(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(2); got != session.PairBuilder(b4) {
		t.Errorf("fresh session got %v, want the default k=4 builder", got)
	}
	s2.Close()

	// If the recorded k's builder vanished from the candidate set (the
	// operator reconfigured between runs), admission falls back to the
	// current k rather than failing.
	s3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	c3 := newCtl(t, func(cfg *Config) {
		cfg.Candidates = []Candidate{{Proto: "beta", K: 4, Builder: b4, Upper: 16}}
		cfg.Store = s3
	})
	if err := c3.Admit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got := c3.BuilderFor(1); got != session.PairBuilder(b4) {
		t.Errorf("orphaned record resumed with %v, want the k=4 fallback", got)
	}
}
