package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualClockOrdering(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	c.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	n := c.RunAll()
	if n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", c.Now())
	}
}

func TestVirtualClockFIFOAtSameInstant(t *testing.T) {
	c := NewVirtualClock()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	c.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestVirtualClockRunUntil(t *testing.T) {
	c := NewVirtualClock()
	ran := 0
	for i := 1; i <= 5; i++ {
		c.Schedule(time.Duration(i)*time.Second, func() { ran++ })
	}
	n := c.Run(3 * time.Second)
	if n != 3 || ran != 3 {
		t.Fatalf("Run(3s) executed %d events (callback saw %d), want 3", n, ran)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("clock at %v, want 3s", c.Now())
	}
	if c.Pending() != 2 {
		t.Fatalf("%d pending, want 2", c.Pending())
	}
}

func TestVirtualClockCascade(t *testing.T) {
	c := NewVirtualClock()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			c.ScheduleAfter(time.Second, recurse)
		}
	}
	c.ScheduleAfter(time.Second, recurse)
	c.RunAll()
	if depth != 5 {
		t.Fatalf("cascade depth %d, want 5", depth)
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", c.Now())
	}
}

func TestSchedulePastClamps(t *testing.T) {
	c := NewVirtualClock()
	c.Schedule(10*time.Second, func() {})
	c.Step()
	fired := time.Duration(-1)
	c.Schedule(time.Second, func() { fired = c.Now() })
	c.Step()
	if fired != 10*time.Second {
		t.Fatalf("past event fired at %v, want clamped to 10s", fired)
	}
}

func TestWallClockMonotonic(t *testing.T) {
	var mu sync.Mutex
	c := NewWallClock(100, &mu)
	mu.Lock()
	defer mu.Unlock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

// TestWallClockPastFiresUnderOwnerLock schedules an event an hour of
// simulated time in the past while the owner holds its lock: it must
// wait for the lock, then fire promptly with the lock held.
func TestWallClockPastFiresUnderOwnerLock(t *testing.T) {
	var mu sync.Mutex
	c := NewWallClock(1, &mu)
	done := make(chan bool, 1)
	mu.Lock()
	c.Schedule(-time.Hour, func() { done <- mu.TryLock() })
	select {
	case <-done:
		t.Fatal("event ran while the owner held its lock")
	case <-time.After(20 * time.Millisecond):
	}
	mu.Unlock()
	select {
	case locked := <-done:
		if locked {
			t.Fatal("event ran without the owner's lock held")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("past event did not fire")
	}
}

// TestWallClockEventSeesItsInstant checks the pacing anchor: an event
// observes Now at or after the instant it was scheduled for.
func TestWallClockEventSeesItsInstant(t *testing.T) {
	var mu sync.Mutex
	c := NewWallClock(1000, &mu)
	done := make(chan time.Duration, 1)
	mu.Lock()
	c.Schedule(5*time.Second, func() { done <- c.Now() }) // 5ms of wall time
	mu.Unlock()
	if now := <-done; now < 5*time.Second {
		t.Fatalf("event at 5s saw Now %v", now)
	}
}

// TestWallClockStopDropsEvents checks that nothing fires once the owner
// stops the clock, including events already due.
func TestWallClockStopDropsEvents(t *testing.T) {
	var mu sync.Mutex
	c := NewWallClock(1000, &mu)
	var fired atomic.Int32
	mu.Lock()
	c.Schedule(0, func() { fired.Add(1) })
	c.Schedule(10*time.Second, func() { fired.Add(1) }) // 10ms of wall time
	c.Stop()
	c.Schedule(0, func() { fired.Add(1) })
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d events fired after Stop", n)
	}
}
