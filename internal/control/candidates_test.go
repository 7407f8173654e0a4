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

// candCtl builds a controller over three synthetic beta rows: deadline
// δ1·c2 = 18, Upper(2) = 30, Upper(4) = 16, Upper(8) = 9. Row 0, the
// served stack, is k=4.
func candCtl(t *testing.T, mut func(*Config)) (b2, b4, b8 session.PairBuilder, c *Controller) {
	t.Helper()
	b2, b4, b8 = fakeBuilder{"beta(k=2)"}, fakeBuilder{"beta(k=4)"}, fakeBuilder{"beta(k=8)"}
	c = newCtl(t, func(cfg *Config) {
		cfg.Candidates = []Candidate{
			{Proto: "beta", K: 4, Builder: b4, Upper: 16},
			{Proto: "beta", K: 2, Builder: b2, Upper: 30},
			{Proto: "beta", K: 8, Builder: b8, Upper: 9},
		}
		if mut != nil {
			mut(cfg)
		}
	})
	return b2, b4, b8, c
}

// selectRow points the selection at the row of alphabet k, as a retune
// would.
func selectRow(t *testing.T, c *Controller, k int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cd := range c.cands {
		if cd.K == k {
			c.sel = i
			return
		}
	}
	t.Fatalf("no k=%d row", k)
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
	// Every row is of the served family: row 0's.
	cfg = base()
	cfg.Candidates = []Candidate{
		{Proto: "beta", K: 4, Builder: fakeBuilder{"beta(k=4)"}, Upper: 16},
		{Proto: "rateless", K: 4, Builder: fakeBuilder{"rateless(k=4)"}, Upper: 5},
	}
	if _, err := New(cfg); err == nil {
		t.Error("accepted a row of a family other than the served stack's")
	}
}

// TestDurableCandidateSelection: a selection persists as its row's
// stack name and a restarted controller resumes the session under the
// row of that name, wherever it ranks; a record that names no row reads
// as "no record".
func TestDurableCandidateSelection(t *testing.T) {
	ctx := context.Background()
	st := rstp.NewMemStore()

	_, _, _, c1 := candCtl(t, func(cfg *Config) { cfg.Store = st })
	selectRow(t, c1, 8)
	if err := c1.Admit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if raw, ok := st.Load(kKey(5)); !ok || string(raw) != "beta(k=8)" {
		t.Fatalf("persisted selection = %q, want beta(k=8)", raw)
	}

	// Restart: k=4 is selected, but session 5 resumes k=8.
	b2, b4, b8, c2 := candCtl(t, func(cfg *Config) { cfg.Store = st })
	if err := c2.Admit(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(5); got != b8 {
		t.Errorf("restart resumed %v, want the k=8 row", got)
	}
	st.Save(kKey(7), []byte("beta(k=2)"))
	if err := c2.Admit(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if got := c2.BuilderFor(7); got != b2 {
		t.Errorf("beta(k=2) record resumed %v, want the k=2 row", got)
	}

	// A record resolves to its row in any served family.
	bG4, bG8 := fakeBuilder{"gamma(k=4)"}, fakeBuilder{"gamma(k=8)"}
	c3 := newCtl(t, func(cfg *Config) {
		cfg.Store = st
		cfg.Candidates = []Candidate{
			{Proto: "gamma", K: 8, Builder: bG8, Upper: 5},
			{Proto: "gamma", K: 4, Builder: bG4, Upper: 8},
		}
	})
	st.Save(kKey(9), []byte("gamma(k=4)"))
	if err := c3.Admit(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if got := c3.BuilderFor(9); got != bG4 {
		t.Errorf("gamma(k=4) record under served gamma(k=8) resumed %v, want the gamma k=4 row", got)
	}
	if h := c3.State().KHistogram; h["gamma(k=4)"] != 1 {
		t.Errorf("k histogram = %v, want one admission at gamma(k=4)", h)
	}

	// Records that name no row — other spellings, other stacks, garbage —
	// admit under the current selection.
	for i, raw := range []string{"", "4", "beta:8", "beta(k=08)", "hardened(beta(k=8))", "beta(k=16)", "gamma(k=4)", "eight"} {
		id := uint32(10 + i)
		st.Save(kKey(id), []byte(raw))
		if err := c2.Admit(ctx, id); err != nil {
			t.Fatal(err)
		}
		if got := c2.BuilderFor(id); got != b4 {
			t.Errorf("record %q resumed %v, want the current selection beta(k=4)", raw, got)
		}
	}
}

// selectionTrace replays 400 scripted windows through retuneK over one
// table — a random margin bucket as the window's median, or an empty
// window one time in 14 — and returns the sha256 of the trace (step,
// selected row's name, its k) and the per-row selection counts.
func selectionTrace(t *testing.T, p rstp.Params, rows []Candidate, seed int64) (hash, counts string) {
	t.Helper()
	c := newCtl(t, func(cfg *Config) {
		cfg.Params = p
		cfg.Candidates = rows
	})
	rng := rand.New(rand.NewSource(seed))
	bounds := obs.MarginBuckets(0)
	h := sha256.New()
	n := map[string]int{}
	for step := 0; step < 400; step++ {
		var win obs.HistogramSnapshot
		if i := rng.Intn(len(bounds) + 1); i < len(bounds) {
			win = margins(bounds[i], 10)
		}
		c.mu.Lock()
		c.retuneK(win)
		row := c.cands[c.sel]
		c.mu.Unlock()
		fmt.Fprintf(h, "%d %s %d\n", step, row.Builder, row.K)
		n[row.Builder.String()]++
	}
	labels := make([]string, 0, len(n))
	for l := range n {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var got []string
	for _, l := range labels {
		got = append(got, fmt.Sprintf("%s=%d", l, n[l]))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), strings.Join(got, " ")
}

// TestSelectionTraceMatchesParent pins the selection trace over
// one-family tables: the stack.Build bounds of beta 2/4/8 at ctlParams
// and at d=40, and five synthetic beta rows, each replayed under two
// seeds. The hashes and counts were recorded by running selectionTrace
// against the controller that still ranked native rows ahead of
// foreign ones and could switch family, so they prove selection within
// the served family unchanged by that machinery's removal.
func TestSelectionTraceMatchesParent(t *testing.T) {
	build := func(p rstp.Params, k int) Candidate {
		st, err := stack.Build(p, stack.Spec{Proto: "beta", K: k})
		if err != nil {
			t.Fatal(err)
		}
		return Candidate{Proto: "beta", K: k, Builder: st.Builder, Lower: st.Lower, Upper: st.Upper}
	}
	p, wide := ctlParams(), rstp.Params{C1: 2, C2: 3, D: 40}
	tables := map[string]struct {
		p    rstp.Params
		rows []Candidate
	}{
		"real":     {p, []Candidate{build(p, 4), build(p, 2), build(p, 8)}},
		"real-d40": {wide, []Candidate{build(wide, 4), build(wide, 2), build(wide, 8)}},
		"synthetic": {p, []Candidate{
			{Proto: "beta", K: 4, Builder: fakeBuilder{"beta(k=4)"}, Upper: 16},
			{Proto: "beta", K: 2, Builder: fakeBuilder{"beta(k=2)"}, Upper: 30},
			{Proto: "beta", K: 8, Builder: fakeBuilder{"beta(k=8)"}, Upper: 12},
			{Proto: "beta", K: 16, Builder: fakeBuilder{"beta(k=16)"}, Upper: 9},
			{Proto: "beta", K: 32, Builder: fakeBuilder{"beta(k=32)"}, Upper: 7},
		}},
	}
	for _, w := range []struct {
		table        string
		seed         int64
		hash, counts string
	}{
		{"real", 1, "70a01e5e46f9a0a1c0b426d25759cbb0b3822b814be4b620f70bfe06317341fe", "beta(k=2)=127 beta(k=4)=121 beta(k=8)=152"},
		{"real", 2, "8888edad19676f01ceaf6d23c6af3b46c22910a52e5abbad755c5b82aad534f9", "beta(k=2)=153 beta(k=4)=112 beta(k=8)=135"},
		{"real-d40", 1, "6784d28dc352180af18771aaf404b4637c3b04250f21b509444d887ccaa5c68c", "beta(k=2)=66 beta(k=4)=92 beta(k=8)=242"},
		{"real-d40", 2, "d3126ccc2291a7d8d9efb98469ca29b012d3b109c361bd4de7691dffa0bd9480", "beta(k=2)=57 beta(k=4)=114 beta(k=8)=229"},
		{"synthetic", 1, "2ad34724f28d24e6f4818ad3da5b5034f1eab469d79753a593f5a7dfadfccc29", "beta(k=16)=49 beta(k=32)=144 beta(k=4)=144 beta(k=8)=63"},
		{"synthetic", 2, "eeed9eb8b1a20d205bd3c068f3bcdbeccd0bc39110a7d7242c4d4885dc5de87b", "beta(k=16)=42 beta(k=32)=127 beta(k=4)=163 beta(k=8)=68"},
	} {
		tb := tables[w.table]
		hash, counts := selectionTrace(t, tb.p, tb.rows, w.seed)
		if counts != w.counts {
			t.Errorf("%s seed %d: counts {%s}, want {%s}", w.table, w.seed, counts, w.counts)
		}
		if hash != w.hash {
			t.Errorf("%s seed %d: trace hash %s, want %s", w.table, w.seed, hash, w.hash)
		}
	}
}
