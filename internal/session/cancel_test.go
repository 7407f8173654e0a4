package session

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestStartAfterCancelStartsNothing: with the caller's context already
// ended and a free slot, Start must not open a session. The slot select
// is rechecked against the context, so every try returns its error and
// gives its slot back: with MaxSessions = 1 the next Start gets the slot
// at once.
func TestStartAfterCancelStartsNothing(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	defer mem.Close()
	cfg.MaxSessions = 1
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
	if n := d.InFlight(); n != 0 {
		t.Fatalf("%d sessions in flight after cancelled Starts", n)
	}
	short, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	conn, err := d.Start(short, x) // the one slot is free
	if err != nil {
		t.Fatalf("the slot was not released by the cancelled Starts: %v", err)
	}
	conn.Close()
}
