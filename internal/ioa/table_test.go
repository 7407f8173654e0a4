package ioa

import (
	"errors"
	"testing"
)

// tabCounter is newCounter's automaton as a state value: it outputs
// emit(0), ..., emit(limit-1), then an internal tock, and counts the
// emit inputs it receives from elsewhere.
type tabCounter struct {
	n, limit int
	done     bool
	heard    int
}

// emitActs pre-boxes the emits the counter sends, as the protocol
// automata pre-box theirs.
var emitActs = func() (out [4]Action) {
	for i := range out {
		out[i] = emit{N: i}
	}
	return out
}()

var counterTable = MustTable(Table[tabCounter]{
	Name: "counter",
	Classify: func(_ *tabCounter, a Action) Class {
		switch a.(type) {
		case emit:
			return ClassOutput
		case tock:
			return ClassInternal
		case foreign:
			return ClassInput
		}
		return ClassNone
	},
	OnInput: func(s *tabCounter, a Action) error {
		s.heard++
		return nil
	},
	Cmds: []Cmd[tabCounter]{
		{
			Name:  "emit",
			Class: ClassOutput,
			Pre:   func(s *tabCounter) bool { return s.n < s.limit },
			Act:   func(s *tabCounter) Action { return emitActs[s.n] },
			Eff:   func(s *tabCounter) { s.n++ },
		},
		{
			Name:  "tock",
			Class: ClassInternal,
			Pre:   func(s *tabCounter) bool { return s.n == s.limit && !s.done },
			Act:   func(*tabCounter) Action { return tock{} },
			Eff:   func(s *tabCounter) { s.done = true },
		},
	},
})

// TestTableMatchesMachine runs the table and the closure-built counter
// side by side: the same actions in the same order, the same
// quiescence, and the same errors for a disabled or foreign action.
func TestTableMatchesMachine(t *testing.T) {
	m := newCounter(t, "counter", 3)
	s := &tabCounter{limit: 3}
	for {
		want, wok := m.NextLocal()
		got, gok := counterTable.NextLocal(s)
		if got != want || gok != wok {
			t.Fatalf("table next %v/%v, machine next %v/%v", got, gok, want, wok)
		}
		if !wok {
			break
		}
		if err := m.Apply(want); err != nil {
			t.Fatal(err)
		}
		if err := counterTable.Apply(s, got); err != nil {
			t.Fatal(err)
		}
	}
	fresh := &tabCounter{limit: 3}
	if err := counterTable.Apply(fresh, emit{N: 2}); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("wrong emit: %v, want ErrNotEnabled", err)
	}
	if err := counterTable.Apply(fresh, tock{}); !errors.Is(err, ErrNotEnabled) {
		t.Errorf("early tock: %v, want ErrNotEnabled", err)
	}
	if err := counterTable.Apply(fresh, emit{N: 9}); err == nil || fresh.n != 0 {
		t.Errorf("rejected emit changed the state or passed: %v, n = %d", err, fresh.n)
	}
	if err := counterTable.Apply(fresh, foreign{}); err != nil || fresh.heard != 1 {
		t.Errorf("input: %v, heard %d", err, fresh.heard)
	}
	if err := counterTable.Apply(fresh, unknown{}); !errors.Is(err, ErrNotInSignature) {
		t.Errorf("unknown action: %v, want ErrNotInSignature", err)
	}
	noInput := *counterTable
	noInput.OnInput = nil
	if err := noInput.Apply(fresh, foreign{}); !errors.Is(err, ErrNotInSignature) {
		t.Errorf("input without handler: %v, want ErrNotInSignature", err)
	}
}

type unknown struct{}

func (unknown) Kind() string   { return "unknown" }
func (unknown) String() string { return "unknown" }

// TestTableNoAlloc holds a table step at 0 allocations: NextLocal, the
// local Apply that re-runs Act, and an input.
func TestTableNoAlloc(t *testing.T) {
	s := &tabCounter{limit: len(emitActs)}
	allocs := testing.AllocsPerRun(100, func() {
		*s = tabCounter{limit: len(emitActs)}
		for {
			act, ok := counterTable.NextLocal(s)
			if !ok {
				break
			}
			if err := counterTable.Apply(s, act); err != nil {
				t.Fatal(err)
			}
		}
		if err := counterTable.Apply(s, foreign{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("table steps allocate %v per run, want 0", allocs)
	}
}

// TestTableValidate checks the shape errors and that MustTable panics on
// them, as a malformed package-level table must at init.
func TestTableValidate(t *testing.T) {
	classify := func(*tabCounter, Action) Class { return ClassNone }
	cmd := Cmd[tabCounter]{Name: "x", Class: ClassInternal,
		Pre: func(*tabCounter) bool { return true },
		Act: func(*tabCounter) Action { return tock{} },
		Eff: func(*tabCounter) {}}
	bad := map[string]Table[tabCounter]{
		"no name":       {Classify: classify},
		"no classifier": {Name: "m"},
		"input command": {Name: "m", Classify: classify, Cmds: []Cmd[tabCounter]{{Name: "x", Class: ClassInput, Pre: cmd.Pre, Act: cmd.Act, Eff: cmd.Eff}}},
		"no effect":     {Name: "m", Classify: classify, Cmds: []Cmd[tabCounter]{{Name: "x", Class: ClassInternal, Pre: cmd.Pre, Act: cmd.Act}}},
	}
	for name, tb := range bad {
		if err := tb.validate(); err == nil {
			t.Errorf("%s: validate passed", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MustTable did not panic", name)
				}
			}()
			MustTable(tb)
		}()
	}
	good := Table[tabCounter]{Name: "m", Classify: classify, Cmds: []Cmd[tabCounter]{cmd}}
	if err := good.validate(); err != nil {
		t.Errorf("valid table: %v", err)
	}
}
