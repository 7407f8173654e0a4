package main

import "testing"

// TestRun smoke-tests the occupancy-gate example end to end: the gate
// binds, and every session completes with its prefix intact.
func TestRun(t *testing.T) {
	res, err := run(32)
	if err != nil {
		t.Fatal(err)
	}
	if res.gate.Gated == 0 {
		t.Errorf("the gate never held a dial: %+v", res.gate)
	}
	if res.completed != res.sessions || res.violations != 0 {
		t.Errorf("completed %d of %d sessions with %d violations", res.completed, res.sessions, res.violations)
	}
}
