package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestPacerNeverWakesEarly arms one waiter tick after tick and checks
// each signal arrives once its tick has begun, never before.
func TestPacerNeverWakesEarly(t *testing.T) {
	c := NewClock(50 * time.Microsecond)
	w := c.NewWaiter()
	defer w.Stop()
	for i := 0; i < 200; i++ {
		due := c.Now() + int64(1+i%4)
		w.Wake(due)
		<-w.C
		if now := c.Now(); now < due {
			t.Fatalf("woken at tick %d for tick %d", now, due)
		}
	}
	if c.PacerFires() == 0 {
		t.Fatal("no wake-up came from the pacer")
	}
}

// TestPacerWakeBegunTickSignalsAtOnce checks that a tick already begun is
// signalled by Wake itself, and that a later Wake drains a signal nobody
// read, so C never answers an earlier Wake.
func TestPacerWakeBegunTickSignalsAtOnce(t *testing.T) {
	c := NewClock(time.Millisecond)
	w := c.NewWaiter()
	defer w.Stop()
	w.Wake(c.Now())
	select {
	case <-w.C:
	default:
		t.Fatal("Wake for a begun tick did not signal at once")
	}
	w.Wake(c.Now()) // signalled, never read
	w.Wake(c.Now() + 1<<20)
	select {
	case <-w.C:
		t.Fatal("C answered a Wake that the latest one replaced")
	default:
	}
}

// TestPacerOneGoroutinePerClock subscribes several waiters to one clock
// and checks they share one pacer goroutine, which the last Stop ends
// before it returns. Stopping an unsubscribed waiter does nothing.
func TestPacerOneGoroutinePerClock(t *testing.T) {
	c := NewClock(50 * time.Microsecond)
	ws := []*Waiter{c.NewWaiter(), c.NewWaiter(), c.NewWaiter()}
	base := runtime.NumGoroutine()
	for i, w := range ws {
		w.Wake(c.Now() + int64(1000*(i+1)))
	}
	if rise := runtime.NumGoroutine() - base; rise != 1 {
		t.Fatalf("goroutines rose by %d with three waiters on one clock, want 1", rise)
	}
	for _, w := range ws {
		w.Stop()
		w.Stop()
	}
	if rise := runtime.NumGoroutine() - base; rise != 0 {
		t.Fatalf("%d goroutines left after every waiter stopped", rise)
	}
	// The pacer restarts on the next subscription.
	ws[0].Wake(c.Now() + 2)
	<-ws[0].C
	ws[0].Stop()
}

// TestPacerIdleClockDoesNotFire checks that a subscribed waiter that is
// not armed costs no wake-ups.
func TestPacerIdleClockDoesNotFire(t *testing.T) {
	c := NewClock(50 * time.Microsecond)
	w := c.NewWaiter()
	defer w.Stop()
	w.Wake(c.Now() + 2)
	<-w.C
	before := c.PacerFires()
	time.Sleep(20 * time.Millisecond)
	if n := c.PacerFires() - before; n != 0 {
		t.Fatalf("an idle pacer woke %d times", n)
	}
}

// TestPacerConcurrentWaiters runs waiters that wake, re-arm and
// unsubscribe from several goroutines at once, for the race detector.
func TestPacerConcurrentWaiters(t *testing.T) {
	c := NewClock(20 * time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := c.NewWaiter()
			for i := 0; i < 100; i++ {
				due := c.Now() + int64(1+(i+g)%3)
				w.Wake(due)
				<-w.C
				if now := c.Now(); now < due {
					t.Errorf("woken at tick %d for tick %d", now, due)
					return
				}
				if i%10 == g {
					w.Stop()
				}
			}
			w.Stop()
		}(g)
	}
	wg.Wait()
}

// TestTimerAlarm covers the portable alarm the pacer uses off Linux: it
// fires once set, a later set replaces an earlier one, and close ends a
// wait.
func TestTimerAlarm(t *testing.T) {
	c := NewClock(time.Millisecond)
	a := newTimerAlarm(c)
	a.set(c.since() + int64(time.Hour))
	a.set(c.since() + int64(time.Millisecond))
	if !a.wait() {
		t.Fatal("wait reported closed before close")
	}
	done := make(chan bool)
	go func() { done <- a.wait() }()
	a.close()
	if <-done {
		t.Fatal("wait on a closed alarm reported a fire")
	}
}
