package control

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rstp"
	"repro/internal/session"
	"repro/internal/stack"
)

// candCtl builds a controller with one native beta row (k=4) plus
// cross-family candidates, over synthetic bounds: deadline δ1·c2 = 18,
// native Upper(4) = 16, gamma Upper = 8, rateless Upper = 5.
func candCtl(t *testing.T, mut func(*Config)) (*Controller, session.PairBuilder, session.PairBuilder, session.PairBuilder) {
	t.Helper()
	bBeta := fakeBuilder{"beta(k=4)"}
	bGamma := fakeBuilder{"gamma(k=4)"}
	bRl := fakeBuilder{"rateless(k=4)"}
	c := newCtl(t, func(cfg *Config) {
		cfg.Candidates = []Candidate{
			{Proto: "beta", K: 4, Builder: bBeta, Upper: 16},
			{Proto: "rateless", K: 4, Builder: bRl, Lower: 1, Upper: 5},
			{Proto: "gamma", K: 4, Builder: bGamma, Lower: 1, Upper: 8},
		}
		if mut != nil {
			mut(cfg)
		}
	})
	return c, bBeta, bGamma, bRl
}

// selectRow points the selection at the row (proto, k), as a retune
// would.
func selectRow(t *testing.T, c *Controller, proto string, k int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cd := range c.cands {
		if cd.Proto == proto && cd.K == k {
			c.sel = i
			return
		}
	}
	t.Fatalf("no %s:%d row", proto, k)
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
	if got := c.label(c.sel); got != "beta(k=4)" {
		c.mu.Unlock()
		t.Fatalf("healthy window left the native family: %v", got)
	}
	// Median gap 32 → slowdown 2 vs Upper(4)=16: native 32 > 18 fails,
	// gamma 16 <= 18 fits (tried before rateless: larger Upper first).
	c.lastSwitch = -(1 << 40)
	c.retuneK(margins(-14, 10))
	if got := c.label(c.sel); got != "gamma(k=4)" {
		c.mu.Unlock()
		t.Fatalf("overload did not select gamma: %v", got)
	}
	// Deeper slowdown (median gap 24 vs gamma's Upper 8 → slow 3):
	// gamma 24 > 18 fails, rateless 15 fits. Moves inside the candidate
	// set are immediate — no dwell needed.
	c.retuneK(margins(-6, 10))
	if got := c.label(c.sel); got != "rateless(k=4)" {
		c.mu.Unlock()
		t.Fatalf("deeper overload did not move to rateless: %v", got)
	}
	// Recovery: median gap 2 < rateless's Upper → slow 1 → native fits.
	c.lastSwitch = -(1 << 40)
	c.retuneK(margins(16, 10))
	if got := c.label(c.sel); got != "beta(k=4)" {
		c.mu.Unlock()
		t.Fatalf("recovery did not return to the native family: %v", got)
	}
	if c.famSwaps != 2 {
		c.mu.Unlock()
		t.Fatalf("family switches = %d, want 2 (out and back; the in-set move is not a family switch)", c.famSwaps)
	}
	c.mu.Unlock()

	// Admissions hand out the selected builder; the histogram records
	// the row's stack name.
	selectRow(t, c, "gamma", 4)
	if err := c.Admit(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if got := c.BuilderFor(3); got != bGamma {
		t.Errorf("BuilderFor(3) = %v, want the gamma candidate", got)
	}
	st := c.State()
	if st.KHistogram["gamma(k=4)"] != 1 {
		t.Errorf("k histogram = %v, want one admission at gamma(k=4)", st.KHistogram)
	}
	if st.Selected != "gamma(k=4)" || st.K != 4 {
		t.Errorf("State selected=%q k=%d, want gamma(k=4) / 4", st.Selected, st.K)
	}
	var ranked []string
	for _, row := range st.Candidates {
		ranked = append(ranked, fmt.Sprintf("%s:%d", row.Proto, row.K))
	}
	if got := strings.Join(ranked, " "); got != "beta:4 gamma:4 rateless:4" {
		t.Errorf("State candidates = %s, want every row in rank order: beta:4 gamma:4 rateless:4", got)
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
	if got := c.label(c.sel); got != "gamma(k=4)" {
		t.Fatalf("overload did not select gamma: %v", got)
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
		if got := c.label(c.sel); got != "gamma(k=4)" {
			t.Fatalf("window %d flapped the selection to %v", i, got)
		}
	}
	if c.famSwaps != 1 {
		t.Fatalf("famSwaps = %d after 20 alternating windows, want 1 (dwell-limited)", c.famSwaps)
	}
	// Once the dwell elapses, a healthy window does return natively.
	c.lastSwitch = -(1 << 41)
	c.retuneK(margins(16, 10))
	if got := c.label(c.sel); got != "beta(k=4)" {
		t.Fatalf("post-dwell recovery did not return: %v", got)
	}
	if c.famSwaps != 2 {
		t.Fatalf("famSwaps = %d, want 2", c.famSwaps)
	}
}

// TestDurableCandidateSelection: a selection persists as its row's
// stack name and a restarted controller resumes the session under the
// row of that name, native or foreign; a record that names no row reads
// as "no record".
func TestDurableCandidateSelection(t *testing.T) {
	ctx := context.Background()
	st := rstp.NewMemStore()

	c1, _, _, _ := candCtl(t, func(cfg *Config) { cfg.Store = st })
	selectRow(t, c1, "gamma", 4)
	if err := c1.Admit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if raw, ok := st.Load(kKey(5)); !ok || string(raw) != "gamma(k=4)" {
		t.Fatalf("persisted selection = %q, want gamma(k=4)", raw)
	}

	// Restart: native selection is current, but session 5 resumes gamma.
	c2, bBeta, bGamma, bRl := candCtl(t, func(cfg *Config) { cfg.Store = st })
	if err := c2.Admit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(5); got != bGamma {
		t.Errorf("restart resumed %v, want the gamma candidate", got)
	}
	st.Save(kKey(7), []byte("rateless(k=4)"))
	if err := c2.Admit(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(7); got != bRl {
		t.Errorf("rateless(k=4) record resumed %v, want the rateless candidate", got)
	}

	// A record resolves to its row wherever that row ranks, even when
	// its family has since become the native one.
	bG4, bG8 := fakeBuilder{"gamma(k=4)"}, fakeBuilder{"gamma(k=8)"}
	c3 := newCtl(t, func(cfg *Config) {
		cfg.Store = st
		cfg.Candidates = []Candidate{
			{Proto: "gamma", K: 8, Builder: bG8, Upper: 5},
			{Proto: "gamma", K: 4, Builder: bG4, Upper: 8},
		}
	})
	if err := c3.Admit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if got := c3.BuilderFor(5); got != bG4 {
		t.Errorf("gamma(k=4) record under native gamma resumed %v, want the gamma k=4 row", got)
	}
	if h := c3.State().KHistogram; h["gamma(k=4)"] != 1 {
		t.Errorf("k histogram = %v, want one admission at gamma(k=4)", h)
	}

	// Records that name no row — other spellings, other stacks, garbage —
	// admit under the current selection.
	for i, raw := range []string{"", "4", "gamma:4", "gamma(k=04)", "hardened(gamma(k=4))", "gamma(k=8)", "eight"} {
		id := uint32(10 + i)
		st.Save(kKey(id), []byte(raw))
		if err := c2.Admit(ctx, id); err != nil {
			t.Fatal(err)
		}
		if got := c2.BuilderFor(id); got != bBeta {
			t.Errorf("record %q resumed %v, want the current selection beta(k=4)", raw, got)
		}
	}
}

// TestSelectionTraceMatchesParent replays 400 scripted windows through
// retuneK over two tables and three dwell regimes — 1 tick, 2^40 ticks,
// and 2^40 ticks that elapse every 25 windows (so a family switch can
// be dwell-blocked in both directions) — and compares the State trace
// (selected row, k, family switches) with the trace recorded from the
// two-table controller this one replaced: a native k map with a bound
// lookup, plus a separate foreign list. The real table carries the
// stack.Build bounds at ctlParams, where gamma never fits when beta
// k=8 does not; the synthetic one makes gamma reachable. The expected
// hashes and per-label counts were produced by the same script against
// that controller.
func TestSelectionTraceMatchesParent(t *testing.T) {
	p := ctlParams()
	build := func(proto string, k int) Candidate {
		st, err := stack.Build(p, stack.Spec{Proto: proto, K: k})
		if err != nil {
			t.Fatal(err)
		}
		return Candidate{Proto: proto, K: k, Builder: st.Builder, Lower: st.Lower, Upper: st.Upper}
	}
	realRows := []Candidate{build("beta", 4), build("beta", 2), build("beta", 8), build("gamma", 4), build("gamma", 8), build("rateless", 4)}
	synth := []Candidate{
		{Proto: "beta", K: 4, Builder: fakeBuilder{"beta(k=4)"}, Upper: 16},
		{Proto: "beta", K: 2, Builder: fakeBuilder{"beta(k=2)"}, Upper: 30},
		{Proto: "beta", K: 8, Builder: fakeBuilder{"beta(k=8)"}, Upper: 12},
		{Proto: "gamma", K: 4, Builder: fakeBuilder{"gamma(k=4)"}, Upper: 9},
		{Proto: "gamma", K: 8, Builder: fakeBuilder{"gamma(k=8)"}, Upper: 7},
		{Proto: "rateless", K: 4, Builder: fakeBuilder{"rateless(k=4)"}, Upper: 5},
	}
	want := []struct {
		table  int
		dwell  int64
		every  int // > 0: the dwell elapses before every every-th window
		hash   string
		counts string
	}{
		{0, 1, 0, "acc0f87bc6adb7f9754dd24d0427edee93de417e3d11461bbc6e3b6c6b3000f8", `"2": 127, "4": 115, "8": 98, "rateless:4": 60`},
		{0, 1 << 40, 0, "12a867518b106a2aa2010d5810a56606cbefc5afa705709312cdecd9279d146c", `"2": 5, "4": 6, "8": 4, "rateless:4": 385`},
		{0, 1 << 40, 25, "96f53e917f1d0068b95f5fab9830a969d083d6741918c2fa350c5730973208aa", `"2": 89, "4": 94, "8": 82, "rateless:4": 135`},
		{1, 1, 0, "0285fe929f315d118d1e28cd5a8a4274ef94a3b9c9730ec167a5db1a4c99850b", `"4": 150, "8": 60, "gamma:4": 52, "gamma:8": 45, "rateless:4": 93`},
		{1, 1 << 40, 0, "5530c072de914c9e70c443ba4280eeffa05cca5c53a47b179c08ecd3e2bffbe6", `"4": 2, "gamma:4": 49, "gamma:8": 36, "rateless:4": 313`},
		{1, 1 << 40, 25, "fd5ba63ef08d0eb0132cfdc40537b9c02459503a46ff89b74d19bc657fe4c917", `"4": 94, "8": 119, "gamma:4": 31, "gamma:8": 29, "rateless:4": 127`},
	}
	bounds := obs.MarginBuckets(0)
	for _, w := range want {
		table := [][]Candidate{realRows, synth}[w.table]
		c := newCtl(t, func(cfg *Config) {
			cfg.Candidates = table
			cfg.Dwell = w.dwell
		})
		rng := rand.New(rand.NewSource(int64(w.table)*10 + 1))
		h := sha256.New()
		counts := map[string]int{}
		for step := 0; step < 400; step++ {
			var win obs.HistogramSnapshot // an empty window one time in 14
			if i := rng.Intn(len(bounds) + 1); i < len(bounds) {
				win = margins(bounds[i], 10)
			}
			c.mu.Lock()
			if w.every > 0 && step%w.every == 0 {
				c.lastSwitch = -(1 << 41)
			}
			c.retuneK(win)
			row := c.cands[c.sel]
			c.mu.Unlock()
			st := c.State()
			// The recorded trace spells a foreign row "proto:k" and counts
			// a native one under its bare k.
			label, selected := fmt.Sprint(row.K), ""
			if st.Selected != "" {
				if st.Selected != row.Builder.String() {
					t.Fatalf("step %d: State selected %q, want the row's name %q", step, st.Selected, row.Builder)
				}
				selected = fmt.Sprintf("%s:%d", row.Proto, row.K)
				label = selected
			}
			fmt.Fprintf(h, "%d %s %d %d\n", step, selected, st.K, st.FamilySwitches)
			counts[label]++
		}
		labels := make([]string, 0, len(counts))
		for l := range counts {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		var got []string
		for _, l := range labels {
			got = append(got, fmt.Sprintf("%q: %d", l, counts[l]))
		}
		if gotCounts := strings.Join(got, ", "); gotCounts != w.counts {
			t.Errorf("table %d dwell %d/%d: counts {%s}, want {%s}", w.table, w.dwell, w.every, gotCounts, w.counts)
		}
		if gotHash := fmt.Sprintf("%x", h.Sum(nil)); gotHash != w.hash {
			t.Errorf("table %d dwell %d/%d: trace hash %s, want %s", w.table, w.dwell, w.every, gotHash, w.hash)
		}
	}
}
