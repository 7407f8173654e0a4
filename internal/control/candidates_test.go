package control

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/session"
)

// candCtl builds a controller with one native beta row (k=4) plus
// cross-family candidates, over a synthetic bound table: deadline
// δ1·c2 = 18, native Upper(4) = 16, gamma Upper = 8, rateless Upper = 5.
func candCtl(t *testing.T, mut func(*Config)) (*Controller, session.PairBuilder, session.PairBuilder, session.PairBuilder) {
	t.Helper()
	bBeta := fakeBuilder{"beta4"}
	bGamma := fakeBuilder{"gamma4"}
	bRl := fakeBuilder{"rateless4"}
	c := newCtl(t, func(cfg *Config) {
		cfg.DefaultK = 4
		cfg.Candidates = []Candidate{
			{Proto: "beta", K: 4, Builder: bBeta},
			{Proto: "rateless", K: 4, Builder: bRl, Lower: 1, Upper: 5},
			{Proto: "gamma", K: 4, Builder: bGamma, Lower: 1, Upper: 8},
		}
		if mut != nil {
			mut(cfg)
		}
	})
	c.mu.Lock()
	c.table = []rstp.EffortRow{{K: 4, Upper: 16}}
	c.mu.Unlock()
	return c, bBeta, bGamma, bRl
}

func TestCandidateValidation(t *testing.T) {
	base := func() Config {
		return Config{Registry: obs.NewRegistry(), Clock: newCtl(t, nil).cfg.Clock, Params: ctlParams()}
	}
	cfg := base()
	cfg.Candidates = []Candidate{{Proto: "gamma", K: 4, Upper: 8}}
	if _, err := New(cfg); err == nil {
		t.Error("accepted a candidate without a builder")
	}
	cfg = base()
	cfg.Candidates = []Candidate{{K: 4, Builder: fakeBuilder{"b"}, Upper: 8}}
	if _, err := New(cfg); err == nil {
		t.Error("accepted a candidate naming no family")
	}
	cfg = base()
	cfg.Candidates = []Candidate{{Proto: "gamma", K: 1, Builder: fakeBuilder{"b"}, Upper: 8}}
	if _, err := New(cfg); err == nil {
		t.Error("accepted k=1")
	}
	cfg = base()
	cfg.Candidates = []Candidate{{Proto: "gamma", K: 4, Builder: fakeBuilder{"b"}}}
	if _, err := New(cfg); err == nil {
		t.Error("accepted a candidate with no upper bound")
	}
}

// TestCrossFamilySelection: the controller leaves the native family
// only when no native k fits the scaled deadline, prefers the most
// expensive (smallest-alphabet-like) candidate that fits, moves freely
// inside the candidate set, and returns once native fits again.
func TestCrossFamilySelection(t *testing.T) {
	c, bBeta, bGamma, bRl := candCtl(t, func(cfg *Config) { cfg.Dwell = 1 })
	c.mu.Lock()

	c.retuneK(obs.HistogramSnapshot{})
	if c.sel != nil {
		c.mu.Unlock()
		t.Fatalf("healthy window left the native family: %v", c.sel.label())
	}
	// Median gap 32 → slowdown 2 vs Upper(4)=16: native 32 > 18 fails,
	// gamma 16 <= 18 fits (tried before rateless: larger Upper first).
	c.lastSwitch = -(1 << 40)
	c.retuneK(margins(-14, 10))
	if c.sel == nil || c.sel.Proto != "gamma" {
		c.mu.Unlock()
		t.Fatalf("overload did not select gamma: %+v", c.sel)
	}
	// Deeper slowdown (median gap 24 vs gamma's Upper 8 → slow 3):
	// gamma 24 > 18 fails, rateless 15 fits. Moves inside the candidate
	// set are immediate — no dwell needed.
	c.retuneK(margins(-6, 10))
	if c.sel == nil || c.sel.Proto != "rateless" {
		c.mu.Unlock()
		t.Fatalf("deeper overload did not move to rateless: %+v", c.sel)
	}
	// Recovery: median gap 2 < rateless's Upper → slow 1 → native fits.
	c.lastSwitch = -(1 << 40)
	c.retuneK(margins(16, 10))
	if c.sel != nil {
		c.mu.Unlock()
		t.Fatalf("recovery did not return to the native family: %v", c.sel.label())
	}
	if c.famSwaps != 2 {
		c.mu.Unlock()
		t.Fatalf("family switches = %d, want 2 (out and back; the in-set move is not a family switch)", c.famSwaps)
	}
	c.mu.Unlock()

	// Admissions hand out the selected builder; the histogram records
	// the family-qualified label.
	c.mu.Lock()
	c.sel = c.candidate("gamma", 4)
	c.mu.Unlock()
	if err := c.Admit(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if got := c.BuilderFor(3); got != bGamma {
		t.Errorf("BuilderFor(3) = %v, want the gamma candidate", got)
	}
	st := c.State()
	if st.KHistogram["gamma:4"] != 1 {
		t.Errorf("k histogram = %v, want one admission at gamma:4", st.KHistogram)
	}
	if st.Selected != "gamma:4" || st.K != 4 {
		t.Errorf("State selected=%q k=%d, want gamma:4 / 4", st.Selected, st.K)
	}
	if len(st.Candidates) != 2 || st.Candidates[0].Proto != "gamma" {
		t.Errorf("State candidates = %+v, want gamma (Upper 8) first", st.Candidates)
	}
	_, _ = bBeta, bRl
}

// TestCandidateNoFlap is the hysteresis proof the candidate table needs:
// with gamma's bound sitting next to the native row, alternating
// overloaded and healthy windows — the classic flap input — must
// produce exactly one family switch per dwell, not one per window.
func TestCandidateNoFlap(t *testing.T) {
	c, _, _, _ := candCtl(t, func(cfg *Config) { cfg.Dwell = 1 << 40 })
	c.mu.Lock()
	defer c.mu.Unlock()

	// First escalation is dwell-eligible (New backdates lastSwitch).
	c.retuneK(margins(-14, 10))
	if c.sel == nil || c.sel.Proto != "gamma" {
		t.Fatalf("overload did not select gamma: %+v", c.sel)
	}
	if c.famSwaps != 1 {
		t.Fatalf("famSwaps = %d after first switch, want 1", c.famSwaps)
	}
	// 20 alternating windows inside one dwell: the selection must hold.
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			c.retuneK(margins(16, 10)) // healthy: native would fit
		} else {
			c.retuneK(margins(-14, 10)) // overloaded again
		}
		if c.sel == nil || c.sel.Proto != "gamma" {
			t.Fatalf("window %d flapped the selection to %+v", i, c.sel)
		}
	}
	if c.famSwaps != 1 {
		t.Fatalf("famSwaps = %d after 20 alternating windows, want 1 (dwell-limited)", c.famSwaps)
	}
	// Once the dwell elapses, a healthy window does return natively.
	c.lastSwitch = -(1 << 41)
	c.retuneK(margins(16, 10))
	if c.sel != nil {
		t.Fatalf("post-dwell recovery did not return: %+v", c.sel)
	}
	if c.famSwaps != 2 {
		t.Fatalf("famSwaps = %d, want 2", c.famSwaps)
	}
}

// TestDurableCandidateSelection: a cross-family choice persists as
// "proto:k" and a restarted controller resumes the session under it,
// while legacy bare-k records keep resolving to the native family.
func TestDurableCandidateSelection(t *testing.T) {
	ctx := context.Background()
	st := rstp.NewMemStore()

	c1, _, bGamma, _ := candCtl(t, func(cfg *Config) { cfg.Store = st })
	c1.mu.Lock()
	c1.sel = c1.candidate("gamma", 4)
	c1.mu.Unlock()
	if err := c1.Admit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if raw, ok := st.Load(kKey(5)); !ok || string(raw) != "gamma:4" {
		t.Fatalf("persisted selection = %q, want gamma:4", raw)
	}

	// Restart: native selection is current, but session 5 resumes gamma.
	c2, bBeta, bGamma2, _ := candCtl(t, func(cfg *Config) { cfg.Store = st })
	if err := c2.Admit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(5); got != bGamma2 {
		t.Errorf("restart resumed %v, want the gamma candidate", got)
	}
	_ = bGamma

	// Legacy bare-k record resolves to the native builder.
	st.Save(kKey(6), []byte("4"))
	if err := c2.Admit(ctx, 6); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(6); got != bBeta {
		t.Errorf("legacy record resumed %v, want the native k=4 builder", got)
	}
	st.Save(kKey(7), []byte("rateless:4"))
	if err := c2.Admit(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(7); got.String() != "rateless4" {
		t.Errorf("rateless:4 record resumed %v, want the rateless candidate", got)
	}

	// Garbage forms read as "no record".
	for _, raw := range []string{"gamma:", ":4", "gamma:one", "gamma:1"} {
		st.Save(kKey(9), []byte(raw))
		if proto, k, ok := storedSel(st, 9); ok {
			t.Errorf("storedSel accepted %q as %s:%d", raw, proto, k)
		}
	}
}
