package transport

import (
	"os"
	"syscall"
	"unsafe"
)

// timerfdAlarm is the Linux alarm: a CLOCK_MONOTONIC timerfd read through
// a non-blocking os.File, so the waiting goroutine parks in the netpoller
// and the kernel's hrtimer wakes it, not the runtime's millisecond sleep.
type timerfdAlarm struct {
	f  *os.File
	fd uintptr
	// mono is CLOCK_MONOTONIC at the clock's start, in ns. It is read
	// after the clock's own reading, so a deadline maps no earlier than
	// the clock says: the alarm can fire late by the read gap, never
	// early.
	mono int64
	spec itimerspec
	buf  [8]byte
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

const (
	clockMonotonic  = 1
	tfdTimerAbstime = 1
)

// newAlarm returns the timerfd alarm, or the portable one if the kernel
// refuses a timerfd.
func newAlarm(c *Clock) alarm {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerAlarm(c)
	}
	since := c.since()
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		syscall.Close(int(fd))
		return newTimerAlarm(c)
	}
	return &timerfdAlarm{f: os.NewFile(fd, "pacer-timerfd"), fd: fd, mono: ts.Nano() - since}
}

func (a *timerfdAlarm) set(at int64) {
	a.spec.value = syscall.NsecToTimespec(a.mono + at)
	// settime fails only on a bad descriptor or value; a live alarm
	// passes neither, so the result is not checked.
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, tfdTimerAbstime, uintptr(unsafe.Pointer(&a.spec)), 0, 0, 0)
}

func (a *timerfdAlarm) wait() bool {
	_, err := a.f.Read(a.buf[:])
	return err == nil
}

func (a *timerfdAlarm) close() { a.f.Close() }
