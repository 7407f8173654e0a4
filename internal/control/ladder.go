package control

import "fmt"

// Level is one rung of the shed-escalation ladder, ordered by severity.
// The ladder never jumps: it climbs and descends one rung at a time, at
// most one change per dwell window, so the policy cannot flap between
// "business as usual" and "refuse everyone" on a noisy signal.
type Level int

const (
	// LevelNormal applies no control: admissions flow untouched.
	LevelNormal Level = iota
	// LevelPace delays new admissions by a jittered pacing interval, so
	// load is shaped before anything is turned away.
	LevelPace
	// LevelRefuse is the top rung: it turns brand-new sessions away
	// outright (dialer Admit and server spawn both), while admitted
	// sessions run to completion.
	LevelRefuse
)

// numLevels counts the ladder's rungs, LevelNormal included.
const numLevels = int(LevelRefuse) + 1

// String names the level for metrics, summaries and logs.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelPace:
		return "pace"
	case LevelRefuse:
		return "refuse"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// The controller's ladder thresholds: rung i+1 is entered at pressure
// >= ladderEnter[i] and left at pressure <= ladderExit[i], half the
// entry threshold.
var (
	ladderEnter = [numLevels - 1]float64{0.25, 1}
	ladderExit  = [numLevels - 1]float64{0.125, 0.5}
)

// Ladder is the escalation hysteresis state machine: a pure, lock-free
// value (the Controller serialises access) mapping a scalar pressure
// signal onto a Level with three flap defenses —
//
//   - split thresholds: rung i+1 is entered at pressure >= Enter[i] but
//     only left at pressure <= Exit[i], so a signal hovering at a
//     threshold cannot toggle the level;
//   - dwell time: after any change the level is frozen for Dwell ticks,
//     bounding the change rate to one per window by construction;
//   - single-step moves: however hard the pressure spikes, the ladder
//     climbs one rung per change, giving each milder remedy one dwell
//     window to work before the next escalation.
type Ladder struct {
	// Enter[i] is the pressure at or above which level i+1 becomes the
	// escalation target; Exit[i] the pressure at or below which level i+1
	// de-escalates. Enter must be ascending and Exit[i] < Enter[i].
	Enter [numLevels - 1]float64
	Exit  [numLevels - 1]float64
	// Dwell is the minimum tick gap between consecutive level changes.
	Dwell int64

	level      Level
	lastChange int64
}

// Current returns the rung without advancing the machine.
func (l *Ladder) Current() Level { return l.level }

// Update advances the ladder one observation: now is the current tick,
// pressure the scalar overload signal (0 = healthy). It returns the
// (possibly unchanged) level after the step.
func (l *Ladder) Update(now int64, pressure float64) Level {
	target := l.target(pressure)
	if target == l.level || now-l.lastChange < l.Dwell {
		return l.level
	}
	if target > l.level {
		l.level++
	} else {
		l.level--
	}
	l.lastChange = now
	return l.level
}

// target resolves the thresholds with hysteresis relative to the current
// level: escalate toward the highest rung whose Enter threshold the
// pressure meets; de-escalate one rung only once pressure falls to the
// current rung's Exit threshold; otherwise hold.
func (l *Ladder) target(pressure float64) Level {
	up := LevelNormal
	for i := range l.Enter {
		if pressure >= l.Enter[i] {
			up = Level(i + 1)
		}
	}
	if up > l.level {
		return up
	}
	if l.level > LevelNormal && pressure <= l.Exit[l.level-1] {
		return l.level - 1
	}
	return l.level
}
