package faults

import (
	"math"
	"testing"
)

func TestParseWindow(t *testing.T) {
	if from, to, err := ParseWindow("100:400"); err != nil || from != 100 || to != 400 {
		t.Errorf("ParseWindow(100:400) = %d, %d, %v", from, to, err)
	}
	for _, bad := range []string{"", "5", "5:5", "9:3", "a:4", "4:b", "1:2:3"} {
		if _, _, err := ParseWindow(bad); err == nil {
			t.Errorf("ParseWindow(%q) accepted", bad)
		}
	}
}

func TestClauses(t *testing.T) {
	got, err := Clauses(0.2, 0.1, 0, 3, "0:600", "700:900")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{From: 0, To: 600, Drop: 0.2, Dup: 0.1, ExtraDelay: 3},
		{From: 700, To: 900, Blackout: true},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Clauses = %+v, want %+v", got, want)
	}
	// No probabilistic flag set: the window is never parsed.
	if got, err := Clauses(0, 0, 0, 0, "garbage", ""); err != nil || len(got) != 0 {
		t.Errorf("flagless Clauses = %+v, %v; want none", got, err)
	}
	if _, err := Clauses(0.5, 0, 0, 0, "5:5", ""); err == nil {
		t.Error("empty -fwindow accepted")
	}
	if _, err := Clauses(0, 0, 0, 0, "", "9:3"); err == nil {
		t.Error("backwards -blackout accepted")
	}
	// Out-of-range flags fail instead of dropping every packet (loss >
	// 1) or being silently ignored (negative, NaN, negative excess).
	nan := math.NaN()
	for _, c := range []struct {
		loss, dup, corrupt float64
		excess             int64
	}{
		{1.5, 0, 0, 0}, {-0.2, 0, 0, 0}, {nan, 0, 0, 0},
		{0, 1.01, 0, 0}, {0, -1, 0, 0}, {0, nan, 0, 0},
		{0, 0, 2, 0}, {0, 0, -0.5, 0}, {0, 0, nan, 0},
		{0, 0, 0, -3},
	} {
		if got, err := Clauses(c.loss, c.dup, c.corrupt, c.excess, "0:600", ""); err == nil {
			t.Errorf("Clauses(%v, %v, %v, %d) accepted: %+v", c.loss, c.dup, c.corrupt, c.excess, got)
		}
	}
	// The closed interval's ends are valid probabilities.
	if _, err := Clauses(1, 0, 1, 0, "0:600", ""); err != nil {
		t.Errorf("probability 1 rejected: %v", err)
	}
}
