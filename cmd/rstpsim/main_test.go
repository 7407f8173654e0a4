package main

import (
	"strings"
	"testing"
)

func TestRunEachProtocol(t *testing.T) {
	for _, proto := range []string{"alpha", "beta", "gamma"} {
		t.Run(proto, func(t *testing.T) {
			var sb strings.Builder
			if err := run([]string{"-proto", proto, "-n", "16", "-k", "4"}, &sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			for _, want := range []string{"Y == X      true", "good(A)     yes", "effort"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestRunExplicitInputWithPadding(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-proto", "beta", "-k", "4", "-input", "101"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(3 padding)") {
		t.Errorf("expected 3 padding bits:\n%s", sb.String())
	}
}

func TestRunSchedulesAndDelays(t *testing.T) {
	for _, sched := range []string{"slow", "fast", "alternating", "random"} {
		for _, delay := range []string{"max", "zero", "random", "reverse", "batch"} {
			var sb strings.Builder
			args := []string{"-proto", "beta", "-k", "4", "-n", "24", "-sched", sched, "-delay", delay}
			if err := run(args, &sb); err != nil {
				t.Fatalf("sched=%s delay=%s: %v", sched, delay, err)
			}
		}
	}
}

func TestRunGammaReverse(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-proto", "gamma", "-k", "4", "-n", "16", "-delay", "reverse"}, &sb); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-proto", "alpha", "-input", "10", "-trace"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"t=0 t: send", "write(1)", "wait_t"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestRunTimelineOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-proto", "beta", "-k", "4", "-input", "101101", "-timeline"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tick", "──▶", "(recv)"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
}

func TestRunStatsOutput(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-proto", "gamma", "-k", "4", "-n", "20", "-stats"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"peak in flight", "delay", "steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q", want)
		}
	}
}

func TestRunGenBetaWindow(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-proto", "genbeta", "-d1", "8", "-n", "24"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"genbeta", "slack=4", "Y == X      true", "window form"} {
		if !strings.Contains(out, want) {
			t.Errorf("genbeta output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"-proto", "genbeta", "-d1", "99"}, &sb); err == nil {
		t.Error("d1 > d2 should fail")
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	cases := [][]string{
		{"-proto", "nope"},
		{"-proto", "rateless"}, // a serving family, not a paper solution
		{"-sched", "nope"},
		{"-delay", "nope"},
		{"-input", "10x"},
		{"-proto", "beta", "-k", "1"},
		{"-c1", "0"},
		{"-zzz"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}
