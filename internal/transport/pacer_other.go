//go:build !linux

package transport

// newAlarm returns the portable alarm: off Linux the pacer sleeps on a
// runtime timer.
func newAlarm(c *Clock) alarm { return newTimerAlarm(c) }
