package ioa

import (
	"fmt"
)

// Cmd is one guarded command of a Table: a named precondition / effect
// pair over a state of type S producing a single local action. The paper
// presents every automaton in exactly this precondition/effect style
// (Figures 1, 3, 4).
type Cmd[S any] struct {
	// Name labels the command for diagnostics.
	Name string
	// Class is the action's class; it must be ClassOutput or ClassInternal.
	Class Class
	// Pre reports whether the command is enabled in state s.
	Pre func(s *S) bool
	// Act builds the action from state s. Called only when Pre holds. The
	// returned Action must be comparable (a plain struct).
	Act func(s *S) Action
	// Eff applies the command's effect to s. Called only when Pre holds,
	// after Act.
	Eff func(s *S)
}

// Table is the fixed transition program of a deterministic I/O automaton
// whose state is a value of type S: the first enabled command (in
// declaration order) is the unique local action, mirroring the paper's
// convention that preconditions are evaluated with a fixed priority when
// they are not mutually exclusive (the A^γ(k) receiver needs this).
//
// A Table holds no state, so one package-level table serves every
// instance of its automaton type: the automaton's methods pass their own
// state to NextLocal and Apply, building an instance allocates nothing
// for its program, and forking one is a copy of its state.
type Table[S any] struct {
	// Name is the automaton's name.
	Name string
	// Classify must place every action of the automaton's signature; it
	// is consulted before OnInput and before matching local actions.
	Classify func(s *S, a Action) Class
	// OnInput handles input actions and must accept every input in every
	// state (input-enabledness); it may be nil for automata with no
	// inputs.
	OnInput func(s *S, a Action) error
	// Cmds are the guarded commands, highest priority first.
	Cmds []Cmd[S]
}

// validate checks the table's shape: a name, a classifier, and commands
// that are local and have Pre, Act and Eff.
func (tb *Table[S]) validate() error {
	if tb.Name == "" {
		return fmt.Errorf("ioa: machine needs a name")
	}
	if tb.Classify == nil {
		return fmt.Errorf("ioa: machine %q needs a classifier", tb.Name)
	}
	for i, c := range tb.Cmds {
		if !c.Class.Local() {
			return fmt.Errorf("ioa: machine %q command %d (%s) must be output or internal, got %v", tb.Name, i, c.Name, c.Class)
		}
		if c.Pre == nil || c.Act == nil || c.Eff == nil {
			return fmt.Errorf("ioa: machine %q command %d (%s) needs Pre, Act and Eff", tb.Name, i, c.Name)
		}
	}
	return nil
}

// MustTable validates tb and returns it; it panics on an invalid table.
// Automaton packages declare their tables as package-level variables
// initialised through it, so a malformed program fails at package init.
func MustTable[S any](tb Table[S]) *Table[S] {
	if err := tb.validate(); err != nil {
		panic(err)
	}
	return &tb
}

// NextLocal returns the first enabled command's action in state s.
func (tb *Table[S]) NextLocal(s *S) (Action, bool) {
	for i := range tb.Cmds {
		if c := &tb.Cmds[i]; c.Pre(s) {
			return c.Act(s), true
		}
	}
	return nil, false
}

// Apply performs one transition on state s. Input actions are dispatched
// to OnInput; local actions must equal the currently enabled command's
// action.
func (tb *Table[S]) Apply(s *S, a Action) error {
	switch tb.Classify(s, a) {
	case ClassInput:
		if tb.OnInput == nil {
			return fmt.Errorf("ioa: machine %q has no input handler for %v: %w", tb.Name, a, ErrNotInSignature)
		}
		return tb.OnInput(s, a)
	case ClassOutput, ClassInternal:
		for i := range tb.Cmds {
			c := &tb.Cmds[i]
			if !c.Pre(s) {
				continue
			}
			act := c.Act(s)
			if act != a {
				// Deterministic machines have exactly one enabled local
				// action; a different action is simply not enabled here.
				return fmt.Errorf("ioa: machine %q: %v (enabled: %v): %w", tb.Name, a, act, ErrNotEnabled)
			}
			c.Eff(s)
			return nil
		}
		return fmt.Errorf("ioa: machine %q: %v: %w", tb.Name, a, ErrNotEnabled)
	default:
		return fmt.Errorf("ioa: machine %q: %v: %w", tb.Name, a, ErrNotInSignature)
	}
}

// Command is one guarded command of a Machine: a Cmd whose closures
// carry their own state.
type Command struct {
	// Name labels the command for diagnostics.
	Name string
	// Class is the action's class; it must be ClassOutput or ClassInternal.
	Class Class
	// Pre reports whether the command is enabled in the current state.
	Pre func() bool
	// Act builds the action from the current state. Called only when Pre
	// holds. The returned Action must be comparable (a plain struct).
	Act func() Action
	// Eff applies the command's effect to the state. Called only when Pre
	// holds, after Act.
	Eff func()
}

// Machine is a deterministic automaton built from closures over state
// the caller owns: a Table over no state of its own, for small automata
// written inline (tests, examples). Protocol automata declare a
// package-level Table over their state type instead.
type Machine struct {
	tab Table[struct{}]
}

var _ Deterministic = (*Machine)(nil)

// noState is the state every Machine passes its table.
var noState struct{}

// NewMachine builds a guarded-command machine with the semantics of
// Table: classify must place every action of the automaton's signature,
// and onInput (nil for an automaton with no inputs) must accept every
// input in every state.
func NewMachine(name string, classify func(Action) Class, onInput func(Action) error, commands []Command) (*Machine, error) {
	m := &Machine{tab: Table[struct{}]{Name: name, Cmds: make([]Cmd[struct{}], len(commands))}}
	if classify != nil {
		m.tab.Classify = func(_ *struct{}, a Action) Class { return classify(a) }
	}
	if onInput != nil {
		m.tab.OnInput = func(_ *struct{}, a Action) error { return onInput(a) }
	}
	for i, c := range commands {
		cmd := Cmd[struct{}]{Name: c.Name, Class: c.Class}
		if c.Pre != nil {
			cmd.Pre = func(*struct{}) bool { return c.Pre() }
		}
		if c.Act != nil {
			cmd.Act = func(*struct{}) Action { return c.Act() }
		}
		if c.Eff != nil {
			cmd.Eff = func(*struct{}) { c.Eff() }
		}
		m.tab.Cmds[i] = cmd
	}
	if err := m.tab.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.tab.Name }

// Classify places an action in the machine's signature.
func (m *Machine) Classify(a Action) Class { return m.tab.Classify(&noState, a) }

// DeterministicIOA marks the machine as deterministic.
func (m *Machine) DeterministicIOA() bool { return true }

// NextLocal returns the first enabled command's action.
func (m *Machine) NextLocal() (Action, bool) { return m.tab.NextLocal(&noState) }

// Apply performs one transition. Input actions are dispatched to onInput;
// local actions must equal the currently enabled command's action.
func (m *Machine) Apply(a Action) error { return m.tab.Apply(&noState, a) }
