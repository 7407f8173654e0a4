package rstp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ioa"
	"repro/internal/rstp"
	"repro/internal/rstpx"
	"repro/internal/wire"
)

// forkable is an automaton whose state is a value: Fork copies it and
// Snapshot names it.
type forkable interface {
	ioa.Automaton
	Snapshot() string
}

// system is a transmitter, a receiver and the FIFO channels between
// them: the state one untimed execution of a protocol pair moves
// through. Deliveries stay in send order, so every burst protocol
// decodes what it receives.
type system struct {
	t, r   forkable
	tr, rt []ioa.Action // recvs in flight, oldest first
	forkT  func(forkable) (forkable, error)
	forkR  func(forkable) (forkable, error)
}

// move is one event of an execution: a local step of t (0) or r (1), or
// the delivery of the oldest packet toward r (2) or toward t (3).
type move int

// enabled lists the moves legal in the current state.
func (s *system) enabled() []move {
	var out []move
	if _, ok := s.t.NextLocal(); ok {
		out = append(out, 0)
	}
	if _, ok := s.r.NextLocal(); ok {
		out = append(out, 1)
	}
	if len(s.tr) > 0 {
		out = append(out, 2)
	}
	if len(s.rt) > 0 {
		out = append(out, 3)
	}
	return out
}

// do performs m, queueing whatever it sends.
func (s *system) do(m move) error {
	switch m {
	case 0, 1:
		a, q := s.t, &s.tr
		if m == 1 {
			a, q = s.r, &s.rt
		}
		act, ok := a.NextLocal()
		if !ok {
			return fmt.Errorf("%s: no local action", a.Name())
		}
		if err := a.Apply(act); err != nil {
			return err
		}
		if snd, ok := act.(wire.Send); ok {
			*q = append(*q, rstp.RecvAction(snd.Dir, snd.P, snd.Payload))
		}
	case 2:
		act := s.tr[0]
		s.tr = s.tr[1:]
		return s.r.Apply(act)
	case 3:
		act := s.rt[0]
		s.rt = s.rt[1:]
		return s.t.Apply(act)
	}
	return nil
}

// fork copies the system: both automata through their Fork, the channels
// into fresh slices.
func (s *system) fork() (*system, error) {
	t, err := s.forkT(s.t)
	if err != nil {
		return nil, err
	}
	r, err := s.forkR(s.r)
	if err != nil {
		return nil, err
	}
	c := *s
	c.t, c.r = t, r
	c.tr = append([]ioa.Action(nil), s.tr...)
	c.rt = append([]ioa.Action(nil), s.rt...)
	return &c, nil
}

// view is what the fork must never change in the original: both
// automata's Snapshot and NextLocal.
func (s *system) view() string {
	ta, tok := s.t.NextLocal()
	ra, rok := s.r.NextLocal()
	return fmt.Sprintf("t[%s] next=%v/%v r[%s] next=%v/%v", s.t.Snapshot(), ta, tok, s.r.Snapshot(), ra, rok)
}

// run takes up to n random legal moves, returning them.
func (s *system) run(tb testing.TB, rng *rand.Rand, n int) []move {
	var log []move
	for i := 0; i < n; i++ {
		en := s.enabled()
		if len(en) == 0 {
			break
		}
		m := en[rng.Intn(len(en))]
		if err := s.do(m); err != nil {
			tb.Fatalf("move %d (%d): %v", i, m, err)
		}
		log = append(log, m)
	}
	return log
}

// forkCases builds a fresh system for each protocol the test covers.
var forkCases = []struct {
	name  string
	bits  int
	build func(x []wire.Bit) (*system, error)
}{
	{"alpha", 12, func(x []wire.Bit) (*system, error) {
		t, err := rstp.NewAlphaTransmitter(constructParams, x)
		if err != nil {
			return nil, err
		}
		r, err := rstp.NewAlphaReceiver(constructParams)
		return &system{t: t, r: r,
			forkT: func(a forkable) (forkable, error) { return a.(*rstp.AlphaTransmitter).Fork() },
			forkR: func(a forkable) (forkable, error) { return a.(*rstp.AlphaReceiver).Fork() },
		}, err
	}},
	{"beta4", 24, func(x []wire.Bit) (*system, error) {
		t, err := rstp.NewBetaTransmitter(constructParams, 4, x)
		if err != nil {
			return nil, err
		}
		r, err := rstp.NewBetaReceiver(constructParams, 4)
		return &system{t: t, r: r,
			forkT: func(a forkable) (forkable, error) { return a.(*rstp.BetaTransmitter).Fork() },
			forkR: func(a forkable) (forkable, error) { return a.(*rstp.BetaReceiver).Fork() },
		}, err
	}},
	{"gamma4", 20, func(x []wire.Bit) (*system, error) {
		t, err := rstp.NewGammaTransmitter(constructParams, 4, x)
		if err != nil {
			return nil, err
		}
		r, err := rstp.NewGammaReceiver(constructParams, 4)
		return &system{t: t, r: r,
			forkT: func(a forkable) (forkable, error) { return a.(*rstp.GammaTransmitter).Fork() },
			forkR: func(a forkable) (forkable, error) { return a.(*rstp.GammaReceiver).Fork() },
		}, err
	}},
	{"genbeta4", 24, func(x []wire.Bit) (*system, error) {
		gp := rstpx.GenParams{TC1: 2, TC2: 3, RC1: 2, RC2: 3, D1: 4, D2: 12}
		burst := 6 // ⌊log2 μ_4(6)⌋ = 6 bits per burst
		t, err := rstpx.NewGenBetaTransmitter(gp, 4, burst, x)
		if err != nil {
			return nil, err
		}
		r, err := rstpx.NewGenBetaReceiver(gp, 4, burst)
		return &system{t: t, r: r,
			forkT: func(a forkable) (forkable, error) { return a.(*rstpx.GenBetaTransmitter).Fork() },
			forkR: func(a forkable) (forkable, error) { return a.(*rstpx.GenBetaReceiver).Fork() },
		}, err
	}},
}

// TestForkIsAnIndependentValue forks each protocol pair at random points
// of random legal executions. A fork driven down another branch must
// leave the original's Snapshot and NextLocal as they were, and the
// original must go on exactly as an unforked copy driven through the
// same moves; an original and its fork driven through the same moves
// must pass through the same Snapshots. A Fork that shared a receiver's
// burst multiset with its original fails the first check. (A shared
// decoded queue would go unseen: both copies decode the same input, so
// they append the same bits at the same positions.)
func TestForkIsAnIndependentValue(t *testing.T) {
	for _, c := range forkCases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(c.name))))
			for trial := 0; trial < 40; trial++ {
				x := make([]wire.Bit, c.bits*(1+rng.Intn(3)))
				for i := range x {
					x[i] = wire.Bit(rng.Intn(2))
				}
				orig, err := c.build(x)
				if err != nil {
					t.Fatal(err)
				}
				// twin replays every move of orig but is never forked.
				twin, err := c.build(x)
				if err != nil {
					t.Fatal(err)
				}
				prefix := orig.run(t, rng, rng.Intn(4*len(x)))
				replay(t, twin, prefix)

				fk, err := orig.fork()
				if err != nil {
					t.Fatal(err)
				}
				// fkTwin replays the fork's moves from the start.
				fkTwin, err := c.build(x)
				if err != nil {
					t.Fatal(err)
				}
				replay(t, fkTwin, prefix)
				before := orig.view()
				replay(t, fkTwin, fk.run(t, rng, 1+rng.Intn(2*len(x))))
				if after := orig.view(); after != before {
					t.Fatalf("trial %d: driving the fork changed the original:\n before %s\n after  %s", trial, before, after)
				}
				// Each goes on as if the other did not exist.
				replay(t, twin, orig.run(t, rng, 1+rng.Intn(2*len(x))))
				if got, want := orig.view(), twin.view(); got != want {
					t.Fatalf("trial %d: forked original diverged from its unforked twin:\n got  %s\n want %s", trial, got, want)
				}
				if got, want := fk.view(), fkTwin.view(); got != want {
					t.Fatalf("trial %d: fork diverged from its twin:\n got  %s\n want %s", trial, got, want)
				}

				// Same moves, same states.
				a, err := orig.fork()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2*len(x); i++ {
					en := orig.enabled()
					if len(en) == 0 {
						break
					}
					m := en[rng.Intn(len(en))]
					if err := orig.do(m); err != nil {
						t.Fatalf("trial %d: move %d: %v", trial, m, err)
					}
					if err := a.do(m); err != nil {
						t.Fatalf("trial %d: fork rejected move %d: %v", trial, m, err)
					}
					if got, want := a.view(), orig.view(); got != want {
						t.Fatalf("trial %d: fork and original differ after the same moves:\n fork %s\n orig %s", trial, got, want)
					}
				}
			}
		})
	}
}

// replay drives s through log, which another copy already took.
func replay(tb testing.TB, s *system, log []move) {
	for i, m := range log {
		if err := s.do(m); err != nil {
			tb.Fatalf("replay move %d (%d): %v", i, m, err)
		}
	}
}
