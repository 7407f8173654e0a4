package main

import (
	"strings"
	"testing"
)

func TestRunSelectedExperiments(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-e", "e2,e3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E2", "Theorem 5.3", "E3", "Theorem 5.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "E4") {
		t.Error("unselected experiment in output")
	}
}

func TestRunParallelAll(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-parallel"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E1 —", "E8 —", "E16 —"} {
		if !strings.Contains(out, want) {
			t.Errorf("parallel output missing %q", want)
		}
	}
	// ID order preserved.
	if strings.Index(out, "E1 —") > strings.Index(out, "E2 —") {
		t.Error("tables out of order")
	}
}

func TestRunCSVFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-quick", "-e", "e2", "-format", "csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# E2") {
		t.Errorf("csv missing comment header:\n%s", out)
	}
	if !strings.Contains(out, "c1,c2,d,") {
		t.Errorf("csv missing column header:\n%s", out)
	}
	if err := run([]string{"-format", "nope"}, &sb); err == nil {
		t.Error("bad format should fail")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-e", "e99"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-matrix"}, // removed flags: the grid is TestServeMatrix in cmd/rstpserve
		{"-baseline", "x.json"},
		{"-attempts", "3"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) should have failed", args)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("all experiments take a few seconds")
	}
	var sb strings.Builder
	if err := run([]string{"-quick", "-seed", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		id := "E" + string(rune('0'+i%10))
		_ = id // ids E1..E12; check a few explicitly below
	}
	for _, want := range []string{"E1 —", "E7 —", "E12 —"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
