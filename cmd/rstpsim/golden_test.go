package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenOutput pins the default simulation run byte for byte: the
// reproduction core is a fixed point, so a change anywhere below this
// command must leave its output untouched. Regenerate the golden only
// when a change is meant to alter the output, from the repository root:
//
//	go run ./cmd/rstpsim > cmd/rstpsim/testdata/golden.txt
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(nil, &sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("output differs from testdata/golden.txt (%d bytes, want %d)\n%s", len(got), len(want), firstDiff(got, string(want)))
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
