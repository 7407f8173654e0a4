package session

import (
	"context"
	"errors"
	"testing"
)

// TestStartAfterCancelStartsNothing: with the caller's context already
// ended and a free slot, Start must not open a session. The slot select
// and the Admit call are both rechecked against the context, so every
// try returns its error, every Admit is matched by a Forget, and the
// slot is free again afterwards.
func TestStartAfterCancelStartsNothing(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	defer mem.Close()
	cfg.MaxSessions = 1
	adm := &countingAdmission{} // admits whatever its context says
	cfg.Admission = adm
	d, err := NewDialer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := inputFor(t, sol, 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 1000; i++ {
		if conn, err := d.Start(ctx, x); !errors.Is(err, context.Canceled) {
			if conn != nil {
				conn.Close()
			}
			t.Fatalf("try %d: Start with an ended context returned %v, want context.Canceled", i, err)
		}
	}
	if a, f := adm.counts(); a != f {
		t.Fatalf("%d admits, %d forgets after 1000 cancelled Starts", a, f)
	}
	if n := d.InFlight(); n != 0 {
		t.Fatalf("%d sessions in flight after cancelled Starts", n)
	}
	conn, err := d.Start(context.Background(), x) // the one slot is free
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}
