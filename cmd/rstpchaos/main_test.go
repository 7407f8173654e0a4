package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunSweepDeterministic runs E17 twice and pins it byte for byte to
// testdata/e17_quick_seed3.txt: the sweep is the one experiment that runs
// the hardened wrapper, so a change to it must leave this output
// untouched. Regenerate the golden only when a change is meant to alter
// the output, from the repository root:
//
//	go run ./cmd/rstpchaos -sweep -quick -seed 3 > cmd/rstpchaos/testdata/e17_quick_seed3.txt
func TestRunSweepDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-sweep", "-quick", "-seed", "3"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", "-quick", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("sweep output not deterministic for a fixed seed")
	}
	checkGolden(t, "testdata/e17_quick_seed3.txt", a.String())
	for _, want := range []string{"E17", "hardened(beta(k=4))", "blackout", "outcome"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
}

func TestRunHardenedSingle(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-stack", "hardened(beta(k=4))", "-loss", "0.3", "-dup", "0.2", "-seed", "5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"hardened(beta(k=4))", "0 prefix violations", "Y=X: true", "DEGRADED"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestRunUnhardenedBlackoutCorrupts(t *testing.T) {
	// Losing the middle bursts misaligns the decoder: the bare protocol
	// both stalls and corrupts its tape, and the tool exits nonzero on
	// the corruption.
	var sb strings.Builder
	err := run([]string{"-stack", "beta(k=4)", "-blackout", "60:240", "-maxticks", "20000"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("expected a corrupted-output error, got %v", err)
	}
	out := sb.String()
	for _, want := range []string{"beta(k=4)", "Y=X: false", "run ended early"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "hardened") {
		t.Error("bare run labelled hardened")
	}
}

func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-stack", "delta(k=4)"},
		{"-stack", "beta(k=04)"}, // one spelling per stack
		{"-stack", "beta"},
		{"-fwindow", "nope", "-loss", "0.5"},
		{"-fwindow", "5:5", "-loss", "0.5"}, // empty window
		{"-blackout", "9:3"},
		{"-stack", "rateless(k=4)"}, // bare or wrapped, the coded pair has no simulator run
		{"-stack", "hardened(rateless(k=4))"},
		{"-loss", "1.5"}, // probabilities outside [0, 1]
		{"-loss", "-0.2"},
		{"-loss", "NaN"},
		{"-excess", "-3"},
		{"-proto", "beta"}, // removed flags: -stack names the stack
		{"-k", "4"},
		{"-unhardened"},
		{"-stabilize"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

// TestRunCrashSweepDeterministic runs E18 twice and pins it byte for byte
// to testdata/e18_quick_seed3.txt, as TestRunSweepDeterministic does for
// E17; E18 is the experiment that runs the stabilized wrapper. Regenerate
// the golden only when a change is meant to alter the output:
//
//	go run ./cmd/rstpchaos -crashsweep -quick -seed 3 > cmd/rstpchaos/testdata/e18_quick_seed3.txt
func TestRunCrashSweepDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-crashsweep", "-quick", "-seed", "3"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-crashsweep", "-quick", "-seed", "3"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("crash-sweep output not deterministic for a fixed seed")
	}
	checkGolden(t, "testdata/e18_quick_seed3.txt", a.String())
	for _, want := range []string{"E18", "stabilized(beta(k=4))", "crash", "outcome"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("crash-sweep output missing %q", want)
		}
	}
}

func TestRunStabilizedProcFaults(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-stack", "stabilized(hardened(beta(k=4)))",
		"-procfaults", "t:crash:60:240,r:crashcorrupt:260:420", "-seed", "5"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"stabilized(hardened(beta(k=4)))", "STABILIZED",
		"0 prefix violations", "Y=X: true", "2 crashes", "1 corruptions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestRunStabilizedUnhardenedBare(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-stack", "stabilized(beta(k=4))",
		"-procfaults", "r:corrupt:150", "-seed", "2"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "stabilized(beta(k=4))") || strings.Contains(out, "hardened") {
		t.Errorf("wrapping labels wrong in:\n%s", out)
	}
}

func TestRunUnwrappedCrashCorrupts(t *testing.T) {
	// A receiver crash loses mid-burst packets: the bare decoder misaligns,
	// writes wrong bits, and the tool exits nonzero on the corruption.
	var sb strings.Builder
	err := run([]string{"-stack", "beta(k=4)",
		"-procfaults", "r:crash:60:240", "-maxticks", "20000"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("expected a corrupted-output error, got %v", err)
	}
	if !strings.Contains(sb.String(), "NOT stabilized") {
		t.Errorf("output missing the stabilization verdict:\n%s", sb.String())
	}
}

func TestParseProcFaultsErrors(t *testing.T) {
	for _, spec := range []string{
		"x:crash:10:20",     // unknown process
		"t:crash",           // missing times
		"t:boom:10:20",      // unknown kind
		"t:rate1:10:20",     // factor below 2
		"t:rate4:10",        // rate without a window
		"t:crash:30:20",     // empty window
		"r:crashcorrupt:10", // checkpoint corruption needs a restart
	} {
		if _, err := parseProcFaults(spec); err == nil {
			t.Errorf("spec %q: expected an error", spec)
		}
	}
	got, err := parseProcFaults("t:crash:60:240, r:rate3:10:50, r:crash:300")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[0].Crash || got[1].RateFactor != 3 || got[2].To != 0 {
		t.Fatalf("parsed %+v", got)
	}
}

// checkGolden fails t at the first line where got differs from the file.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", file, i+1, gl, wl)
		}
	}
}
