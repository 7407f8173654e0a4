package stack

import (
	"testing"

	"repro/internal/rstp"
)

func params() rstp.Params { return rstp.Params{C1: 2, C2: 3, D: 12} }

// buildTable lists every family × k the stack tests cover, with the
// name, block size and effort bounds of its bare stack.
var buildTable = []struct {
	proto        string
	k            int
	name         string
	block        int
	lower, upper float64
}{
	{"alpha", 2, "alpha", 1, 3.7855785214287447, 18},
	{"alpha", 4, "alpha", 1, 3.7855785214287447, 18},
	{"alpha", 8, "alpha", 1, 3.7855785214287447, 18},
	{"beta", 2, "beta(k=2)", 2, 3.7855785214287447, 18},
	{"beta", 4, "beta(k=4)", 6, 2.335430293507063, 6},
	{"beta", 8, "beta(k=8)", 10, 1.558211096778047, 3.6},
	{"gamma", 2, "gamma(k=2)", 2, 3.1517944204463224, 19.5},
	{"gamma", 4, "gamma(k=4)", 5, 1.9644678653425878, 7.8},
	{"gamma", 8, "gamma(k=8)", 8, 1.3410267694025901, 4.875},
	{"rateless", 2, "rateless(k=2)", 2, 3.1517944204463224, 9},
	{"rateless", 4, "rateless(k=4)", 6, 1.9644678653425878, 3},
	{"rateless", 8, "rateless(k=8)", 10, 1.3410267694025901, 1.8},
}

// wrap names a stack's wrappers around the bare name.
func wrap(name string, harden, stabilize bool) string {
	if harden {
		name = "hardened(" + name + ")"
	}
	if stabilize {
		name = "stabilized(" + name + ")"
	}
	return name
}

// TestBuildTable pins every legal stack over {alpha, beta, gamma,
// rateless} × k ∈ {2,4,8} × harden × stabilize to the name, block size
// and effort bounds the serving commands assembled before Build existed,
// checks that every wrapped rateless stack is refused, and that each
// name parses back to the stack it names.
func TestBuildTable(t *testing.T) {
	for _, row := range buildTable {
		for _, harden := range []bool{false, true} {
			for _, stabilize := range []bool{false, true} {
				name := wrap(row.name, harden, stabilize)
				parsed, err := Parse(name)
				if err != nil {
					t.Fatalf("Parse(%q): %v", name, err)
				}
				for _, spec := range []Spec{{Proto: row.proto, K: row.k, Harden: harden, Stabilize: stabilize}, parsed} {
					spec.Seed = 1
					st, err := Build(params(), spec)
					if row.proto == "rateless" && (harden || stabilize) {
						if err == nil {
							t.Errorf("%+v: built %s, want a composition error", spec, st.Builder)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%+v: %v", spec, err)
					}
					if got := st.Builder.String(); got != name {
						t.Errorf("%+v: String() = %q, want %q", spec, got, name)
					}
					if st.BlockBits != row.block || st.Lower != row.lower || st.Upper != row.upper {
						t.Errorf("%s: block/lower/upper = %d/%v/%v, want %d/%v/%v",
							name, st.BlockBits, st.Lower, st.Upper, row.block, row.lower, row.upper)
					}
				}
			}
		}
	}
}

// TestBuildRefusesIllegal covers the refusals Build owns beyond the
// rateless compositions: unknown families, degenerate alphabets and a
// store on a stack that cannot checkpoint into it; and the names Parse
// refuses because they are not the one name of any stack.
func TestBuildRefusesIllegal(t *testing.T) {
	for _, s := range []Spec{
		{Proto: "delta", K: 4},
		{Proto: "", K: 4},
		{Proto: "beta", K: 1},
		{Proto: "gamma", K: 1, Harden: true},
		{Proto: "rateless", K: 1},
		{Proto: "rateless", K: 4, Harden: true},
		{Proto: "rateless", K: 4, Stabilize: true},
		{Proto: "beta", K: 4, Store: rstp.NewMemStore()},
		{Proto: "gamma", K: 4, Harden: true, Store: rstp.NewMemStore()},
		{Proto: "rateless", K: 4, Store: rstp.NewMemStore()},
	} {
		if st, err := Build(params(), s); err == nil {
			t.Errorf("Build(%+v) = %s, want an error", s, st.Builder)
		}
	}
	for _, name := range []string{
		"beta(k=04)", "beta(k=+4)", "beta(k=-4)", "beta(k= 4)", "beta(k=4))", "beta(k=4",
		"beta", "beta(4)", "beta(k=)", "alpha(k=4)", "alpha()", "Beta(k=4)",
		"hardened(stabilized(beta(k=4)))", "hardened(hardened(beta(k=4)))",
		"stabilized(stabilized(beta(k=4)))", "hardened()", "stabilized(beta(k=4)) ",
		"", "delta(k=4)",
	} {
		if s, err := Parse(name); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", name, s)
		}
	}
}

// FuzzParse: Parse never panics, and a name that builds is the name of
// the stack it builds, so no stack has a second spelling. The corpus is
// every name in buildTable. Build runs only for k <= 64: its multiset
// tables grow with k.
func FuzzParse(f *testing.F) {
	for _, row := range buildTable {
		for _, harden := range []bool{false, true} {
			for _, stabilize := range []bool{false, true} {
				f.Add(wrap(row.name, harden, stabilize))
			}
		}
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := Parse(name)
		if err != nil || s.K > 64 {
			return
		}
		if st, err := Build(params(), s); err == nil && st.Builder.String() != name {
			t.Errorf("Parse(%q) builds %q", name, st.Builder)
		}
	})
}

// TestBuildBoundsMatchEffortTable: the bounds of a native-family stack
// are exactly the rstp.EffortTable row for its family and k.
func TestBuildBoundsMatchEffortTable(t *testing.T) {
	p := params()
	for _, proto := range []string{"alpha", "beta", "gamma"} {
		for _, k := range []int{2, 4, 8} {
			st, err := Build(p, Spec{Proto: proto, K: k, Harden: true})
			if err != nil {
				t.Fatal(err)
			}
			rows := rstp.EffortTable(p, proto, []int{k})
			if len(rows) != 1 || rows[0].Lower != st.Lower || rows[0].Upper != st.Upper {
				t.Errorf("%s: bounds %v/%v, EffortTable %+v", st.Builder, st.Lower, st.Upper, rows)
			}
		}
	}
}

// TestUpperNeverRisesWithK: within each family the effort upper bound
// never rises as k grows. The controller ranks its candidates by Upper
// descending and takes the first that fits, which is "the smallest
// fitting k" only because of this.
func TestUpperNeverRisesWithK(t *testing.T) {
	for _, p := range []rstp.Params{
		{C1: 2, C2: 3, D: 12},
		{C1: 1, C2: 1, D: 4},
		{C1: 1, C2: 2, D: 7},
		{C1: 3, C2: 5, D: 20},
		{C1: 2, C2: 3, D: 40},
	} {
		for _, proto := range []string{"beta", "gamma", "rateless"} {
			prev := 0.0
			for k := 2; k <= 32; k++ {
				st, err := Build(p, Spec{Proto: proto, K: k})
				if err != nil {
					t.Fatalf("%+v %s k=%d: %v", p, proto, k, err)
				}
				if k > 2 && st.Upper > prev {
					t.Errorf("%+v %s: Upper rises from %v at k=%d to %v at k=%d", p, proto, prev, k-1, st.Upper, k)
				}
				prev = st.Upper
			}
		}
	}
}
