package control

import "testing"

func testLadder(dwell int64) Ladder {
	return Ladder{
		Enter: [numLevels - 1]float64{0.25, 1},
		Exit:  [numLevels - 1]float64{0.125, 0.5},
		Dwell: dwell,
	}
}

// TestLadderSingleStepPerDwell drives the ladder through a scripted
// pressure trace and checks the exact level at every step: climbs and
// descents happen one rung at a time, never sooner than Dwell ticks
// after the previous change — including the startup freeze.
func TestLadderSingleStepPerDwell(t *testing.T) {
	l := testLadder(10)
	steps := []struct {
		now      int64
		pressure float64
		want     Level
	}{
		{0, 10, LevelNormal},  // startup dwell: even extreme pressure waits
		{5, 10, LevelNormal},  // still inside the first window
		{10, 10, LevelPace},   // first climb — one rung despite pressure 10
		{15, 10, LevelPace},   // dwell freeze
		{20, 10, LevelRefuse}, // top
		{30, 10, LevelRefuse}, // nothing above refuse
		{40, 10, LevelRefuse},
		{45, 0, LevelPace},   // pressure gone: descend one rung
		{50, 0, LevelPace},   // dwell freeze
		{55, 0, LevelNormal}, // one rung per window
		{65, 0, LevelNormal}, // floor
	}
	for i, s := range steps {
		if got := l.Update(s.now, s.pressure); got != s.want {
			t.Fatalf("step %d (now=%d p=%v): level %v, want %v", i, s.now, s.pressure, got, s.want)
		}
	}
}

// TestLadderHysteresisBand parks the pressure between a rung's Exit and
// Enter thresholds: the ladder must hold its level indefinitely — the
// band is exactly the flap protection — and only descend once pressure
// falls to the Exit threshold.
func TestLadderHysteresisBand(t *testing.T) {
	l := testLadder(1)
	now := int64(1)
	if got := l.Update(now, 0.3); got != LevelPace {
		t.Fatalf("enter: level %v, want pace", got)
	}
	// 0.2 is below Enter[0]=0.25 but above Exit[0]=0.125: hold forever.
	for i := 0; i < 50; i++ {
		now++
		if got := l.Update(now, 0.2); got != LevelPace {
			t.Fatalf("band step %d: level %v, want pace (no flap inside the band)", i, got)
		}
	}
	now++
	if got := l.Update(now, 0.1); got != LevelNormal {
		t.Fatalf("exit: level %v, want normal", got)
	}
}

// TestLadderNoFlapUnderOscillation feeds a worst-case oscillating
// signal — pressure slamming between 0 and 5 every tick — and verifies
// the two hard invariants the control loop depends on: at most one
// level change inside any Dwell-wide window, and never a move of more
// than one rung.
func TestLadderNoFlapUnderOscillation(t *testing.T) {
	const dwell = 8
	l := testLadder(dwell)
	prev := l.Current()
	changes := []int64{}
	for now := int64(0); now < 400; now++ {
		p := 0.0
		if now%2 == 0 {
			p = 5.0
		}
		got := l.Update(now, p)
		if d := got - prev; d < -1 || d > 1 {
			t.Fatalf("now=%d: level jumped %v -> %v", now, prev, got)
		}
		if got != prev {
			changes = append(changes, now)
		}
		prev = got
	}
	if len(changes) == 0 {
		t.Fatal("ladder never moved under oscillating pressure")
	}
	for i := 1; i < len(changes); i++ {
		if gap := changes[i] - changes[i-1]; gap < dwell {
			t.Fatalf("changes at %d and %d are %d ticks apart, want >= %d",
				changes[i-1], changes[i], gap, dwell)
		}
	}
}

// TestLadderLevelNames pins the metric/summary labels.
func TestLadderLevelNames(t *testing.T) {
	want := map[Level]string{LevelNormal: "normal", LevelPace: "pace", LevelRefuse: "refuse"}
	for lvl, name := range want {
		if lvl.String() != name {
			t.Errorf("Level(%d).String() = %q, want %q", lvl, lvl.String(), name)
		}
	}
	if numLevels != len(want) {
		t.Errorf("numLevels = %d, want %d", numLevels, len(want))
	}
}
