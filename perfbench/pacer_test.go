package main

import (
	"testing"
	"time"
)

// fakeClock oversleeps every sleep by a fixed amount; tests move it
// forward by hand to stand for time spent sending.
type fakeClock struct {
	t         time.Duration
	oversleep time.Duration
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if c.t < t {
		c.t = t + c.oversleep
	}
}

func TestPacerLateness(t *testing.T) {
	us := time.Microsecond
	clk := &fakeClock{oversleep: 300 * us}
	p := newPacer(clk, time.Millisecond, time.Millisecond, 5)

	// On time: the only lateness is the clock's oversleep.
	i, due, ok := p.claim()
	if !ok || i != 0 || due != time.Millisecond {
		t.Fatalf("first claim = %d, %v, %v", i, due, ok)
	}
	if late := p.release(due); late != 300*us {
		t.Errorf("op 0 late %v, want 300µs", late)
	}

	// The sender was busy until 2.5 ms past the next op's due time: no
	// sleep, and the wait counts as lateness.
	i, due, _ = p.claim()
	clk.t = due + 2500*us
	if late := p.release(due); i != 1 || late != 2500*us {
		t.Errorf("op %d late %v, want op 1 2.5ms late", i, late)
	}

	// Ops already overdue when claimed stay overdue by the full gap.
	i, due, _ = p.claim()
	if late := p.release(due); i != 2 || late != clk.t-due || late != 1500*us {
		t.Errorf("op %d late %v, want op 2 1.5ms late", i, late)
	}

	// Still behind: op 3 was due at 4 ms and the clock reads 4.5 ms.
	i, due, _ = p.claim()
	if late := p.release(due); i != 3 || late != 500*us {
		t.Errorf("op %d late %v, want op 3 500µs late", i, late)
	}

	// Back on schedule.
	i, due, _ = p.claim()
	if late := p.release(due); i != 4 || due != 5*time.Millisecond || late != 300*us {
		t.Errorf("op %d due %v late %v, want op 4 due 5ms late 300µs", i, due, late)
	}

	if _, _, ok := p.claim(); ok {
		t.Error("claim succeeded after the schedule ran out")
	}
}

func TestPacerNeverNegative(t *testing.T) {
	// A clock that wakes exactly on time reports zero, never less.
	clk := &fakeClock{}
	p := newPacer(clk, 0, time.Millisecond, 3)
	for {
		_, due, ok := p.claim()
		if !ok {
			break
		}
		if late := p.release(due); late != 0 {
			t.Errorf("late %v on an exact clock", late)
		}
	}
}
