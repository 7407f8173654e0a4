package main

import "testing"

// TestRun smoke-tests the rateless demo end to end with a smaller
// session count, so `go test ./...` stays fast while still exercising
// the full coded path (builder, serving mux, lossy channel window, decode
// acks, verification).
func TestRun(t *testing.T) {
	if err := run(32); err != nil {
		t.Fatal(err)
	}
}
