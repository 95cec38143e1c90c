package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// clock is the pacer's time source; tests substitute a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// spinMargin is how far ahead of a due time wallClock stops sleeping and
// starts yielding. On a 2-vCPU Linux VM, timers oversleep a 500 µs sleep by
// about 0.6 ms at the median and 1.6 ms at p99, more than an in-process
// search costs, so a plain sleep would make the pacer the noisiest part of
// the run; a 1 ms margin keeps the median op on time for about 0.4 ms of
// yielding.
const spinMargin = time.Millisecond

// wallClock measures from its origin. It sleeps to within spinMargin of a
// due time and then yields the processor in a loop until the time comes,
// so the spin only takes processor time nothing else wants.
type wallClock struct{ origin time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// pacer is an open-loop schedule: op i is due at start + i*interval,
// whether or not earlier ops have finished. Senders claim ops in order, so
// an op waits for a free sender only when every sender is busy, and that
// wait shows as lateness.
type pacer struct {
	clk      clock
	start    time.Duration
	interval time.Duration
	n        int
	next     atomic.Int64
}

func newPacer(clk clock, start, interval time.Duration, n int) *pacer {
	return &pacer{clk: clk, start: start, interval: interval, n: n}
}

// claim hands out the next op and its due time; ok is false once the
// schedule is exhausted.
func (p *pacer) claim() (i int, due time.Duration, ok bool) {
	i = int(p.next.Add(1) - 1)
	if i >= p.n {
		return 0, 0, false
	}
	return i, p.start + time.Duration(i)*p.interval, true
}

// release waits until due and returns how late the op goes out: never
// negative, and including any time the op spent waiting to be claimed.
func (p *pacer) release(due time.Duration) time.Duration {
	p.clk.sleepUntil(due)
	return max(0, p.clk.now()-due)
}
