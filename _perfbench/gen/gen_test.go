package gen

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps or a request
// "takes" time, so a single-worker run is fully deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

func TestScheduleIsAbsolute(t *testing.T) {
	span := 5 * time.Second
	n := Arrivals(200, span)
	due := Schedule(rand.New(rand.NewSource(7)), n, span)
	if len(due) != n || n != 1000 {
		t.Fatalf("%d arrivals, want exactly %d", len(due), n)
	}
	ref := rand.New(rand.NewSource(7))
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = ref.ExpFloat64()
		total += gaps[i]
	}
	sum := 0.0
	for i, d := range due {
		sum += gaps[i]
		if want := time.Duration(sum / total * float64(span)); d != want {
			t.Fatalf("arrival %d due at %v, want the scaled gap sum %v", i, d, want)
		}
		if d >= span || (i > 0 && d < due[i-1]) {
			t.Fatalf("arrival %d due at %v: outside the span or out of order", i, d)
		}
	}
	// The scaled gaps keep the exponential's mean: about 5ms at 200/s.
	if mean := float64(due[n-1]) / float64(n-1) / float64(time.Millisecond); math.Abs(mean-5) > 0.5 {
		t.Fatalf("mean gap %.2fms, want about 5ms", mean)
	}
}

func TestRunMeasuresFromDueAndAccountsLateness(t *testing.T) {
	clk := &fakeClock{t: 10 * time.Millisecond}
	ms := time.Millisecond
	due := []time.Duration{1 * ms, 2 * ms, 3 * ms, 20 * ms}
	service := 2500 * time.Microsecond
	samples := Run(clk, due, 1, func(int) { clk.advance(service) })

	want := []Sample{
		{Due: 1 * ms, Sent: 1 * ms, Done: 3500 * time.Microsecond},
		{Due: 2 * ms, Sent: 3500 * time.Microsecond, Done: 6 * ms},
		{Due: 3 * ms, Sent: 6 * ms, Done: 8500 * time.Microsecond},
		{Due: 20 * ms, Sent: 20 * ms, Done: 22500 * time.Microsecond},
	}
	for i, s := range samples {
		if s != want[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, s, want[i])
		}
	}
	// The third arrival waited 3ms behind the first two, and its
	// latency counts that wait.
	if got := samples[2].Latency(); got != 5500*time.Microsecond {
		t.Fatalf("latency from due = %v, want 5.5ms", got)
	}
	acc := Account(samples)
	if acc.QueueMax != 2 {
		t.Fatalf("queue max = %d, want 2 (arrivals 1 and 2 due while 0 ran)", acc.QueueMax)
	}
	if acc.P50 != 0 || acc.P99 != 3 {
		t.Fatalf("lateness p50/p99 = %v/%v ms, want 0/3", acc.P50, acc.P99)
	}
}

func TestLatenessGrowthUnderOverload(t *testing.T) {
	clk := &fakeClock{}
	due := Schedule(rand.New(rand.NewSource(1)), 1000, time.Second)
	if len(due) != 1000 {
		t.Fatalf("%d arrivals", len(due))
	}
	// Service takes 1.5ms against a 1ms mean gap: the backlog grows.
	over := Account(Run(clk, due, 1, func(int) { clk.advance(1500 * time.Microsecond) }))
	if !over.Grows(1) {
		t.Fatalf("overloaded run does not grow: %+v", over)
	}
	clk = &fakeClock{}
	under := Account(Run(clk, due, 1, func(int) { clk.advance(100 * time.Microsecond) }))
	if under.Grows(1) {
		t.Fatalf("lightly loaded run grows: %+v", under)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile is not 0")
	}
	if got := Quantile([]float64{3}, 0.99); got != 3 {
		t.Errorf("single-sample quantile = %v", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},   // exactly 10 beyond
		{999, 0.99, false},   // 9 beyond
		{20, 0.5, true},      // 10 beyond
		{19, 0.5, false},     //  9 beyond
		{10000, 0.999, true}, // 10 beyond
		{9999, 0.999, false},
	}
	for _, c := range cases {
		if got := Supports(c.n, c.q); got != c.want {
			t.Errorf("Supports(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if HighestSupported(1500) != 0.99 || HighestSupported(10) != 0 || HighestSupported(200) != 0.9 {
		t.Error("HighestSupported picks the wrong percentile")
	}
}
