// Package gen is the benchmark's open-loop load generator: an
// absolute Poisson arrival schedule, a fixed pool of workers that
// claim arrivals in order and send each one no earlier than it is
// due, and the accounting that turns per-arrival timestamps into
// latency-from-due quantiles, generator lateness and backlog.
//
// Every time is an offset from the start of a phase, read from a
// Clock, so the schedule and the accounting can be tested under an
// injected clock.
package gen

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Schedule returns the due offsets of n Poisson arrivals spread over
// span: arrival i is due at the sum of the first i+1 exponential gaps,
// the gaps scaled so that n+1 of them fill the span exactly. That is
// a Poisson process conditioned on its count, so every phase of a
// given rate and span offers the same number of arrivals, and a late
// send never shifts any later arrival.
func Schedule(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	if n <= 0 || span <= 0 {
		return nil
	}
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	due := make([]time.Duration, n)
	sum := 0.0
	for i := range due {
		sum += gaps[i]
		due[i] = time.Duration(sum / total * float64(span))
	}
	return due
}

// Arrivals is how many arrivals a phase of the given rate and span
// offers.
func Arrivals(rate float64, span time.Duration) int {
	return int(math.Round(rate * span.Seconds()))
}

// Clock is the generator's time source. Now is monotonic; SleepUntil
// returns once Now has reached t (at once when it already has).
type Clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

// WallClock reads the process's monotonic clock as an offset from its
// creation.
type WallClock struct{ start time.Time }

// NewWallClock returns a wall clock whose zero is now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns the time elapsed since the clock was created.
func (c *WallClock) Now() time.Duration { return time.Since(c.start) }

// SleepUntil sleeps until offset t. It blocks the OS thread in
// nanosleep rather than parking on a runtime timer: an idle Go runtime
// wakes timers through its poller at millisecond granularity, which
// would add up to a millisecond of lateness to every arrival, while
// nanosleep overshoots by tens of microseconds.
func (c *WallClock) SleepUntil(t time.Duration) {
	for {
		d := t - c.Now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
		// EINTR: sleep again for what is left.
	}
}

// Sample is one arrival's timeline: when it was due, when a worker
// sent it, and when its answer was complete.
type Sample struct {
	Due, Sent, Done time.Duration
}

// Latency is the time from due to done: a stall that makes later
// arrivals wait counts against them.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Lateness is how long after its due time the arrival was sent.
func (s Sample) Lateness() time.Duration { return s.Sent - s.Due }

// Run offers the scheduled arrivals, shifted to start at the clock's
// current reading, on the given number of workers. Each worker claims
// the next unclaimed arrival, sleeps until it is due and calls do with
// its index; at most workers calls run at once. Run returns once every
// arrival has completed, with samples indexed like due.
func Run(clk Clock, due []time.Duration, workers int, do func(i int)) []Sample {
	if workers < 1 {
		workers = 1
	}
	t0 := clk.Now()
	samples := make([]Sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := t0 + due[i]
				clk.SleepUntil(at)
				sent := clk.Now()
				do(i)
				samples[i] = Sample{Due: at - t0, Sent: sent - t0, Done: clk.Now() - t0}
			}
		}()
	}
	wg.Wait()
	return samples
}

// Quantile returns the q-quantile of sorted by nearest rank: the
// smallest value with at least a q share of the samples at or below
// it. It returns 0 for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// MinTail is how many samples must lie beyond a reported percentile.
const MinTail = 10

// Supports reports whether n samples support the q-quantile: at least
// MinTail samples must lie beyond its nearest rank.
func Supports(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= MinTail
}

// HighestSupported returns the highest of the conventional quantiles
// (0.5, 0.9, 0.99, 0.999) that n samples support, or 0 when none is.
func HighestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if Supports(n, q) {
			best = q
		}
	}
	return best
}

// Millis converts durations to sorted float milliseconds.
func Millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// Lateness summarises how far behind its schedule the generator ran.
type Lateness struct {
	// P50 and P99 are lateness quantiles in milliseconds.
	P50, P99 float64
	// QueueMax is the largest number of arrivals that were due but not
	// yet sent at any one moment.
	QueueMax int
	// Early and Late are the median lateness, in milliseconds, of the
	// first and the last third of the arrivals.
	Early, Late float64
}

// Grows reports whether the generator fell behind during the phase.
// Every phase starts with nothing queued, so a backlog that the
// system keeps up with leaves the last third's median lateness near
// zero; Grows reports whether it exceeds slack milliseconds.
func (l Lateness) Grows(slack float64) bool { return l.Late > slack }

// Account computes the lateness summary of a phase's samples.
func Account(samples []Sample) Lateness {
	n := len(samples)
	if n == 0 {
		return Lateness{}
	}
	late := make([]time.Duration, n)
	for i, s := range samples {
		late[i] = s.Lateness()
	}
	all := Millis(late)
	third := n / 3
	if third == 0 {
		third = 1
	}
	early := Millis(late[:third])
	tail := Millis(late[n-third:])
	return Lateness{
		P50:      Quantile(all, 0.5),
		P99:      Quantile(all, 0.99),
		QueueMax: queueMax(samples),
		Early:    Quantile(early, 0.5),
		Late:     Quantile(tail, 0.5),
	}
}

// queueMax sweeps due (+1) and send (-1) events in time order; at
// equal times a send is applied before a due, so an arrival sent the
// instant it falls due never counts as queued.
func queueMax(samples []Sample) int {
	type event struct {
		at    time.Duration
		delta int
	}
	ev := make([]event, 0, 2*len(samples))
	for _, s := range samples {
		ev = append(ev, event{s.Due, +1}, event{s.Sent, -1})
	}
	sort.Slice(ev, func(a, b int) bool {
		if ev[a].at != ev[b].at {
			return ev[a].at < ev[b].at
		}
		return ev[a].delta < ev[b].delta
	})
	depth, best := 0, 0
	for _, e := range ev {
		depth += e.delta
		if depth > best {
			best = depth
		}
	}
	return best
}
