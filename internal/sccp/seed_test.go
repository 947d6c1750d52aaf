package sccp

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// streamLen covers the shared prefix three times over, so every check
// also reads the stream past it.
const streamLen = 3*seed1Prefix + 17

// TestSeed1StreamMatchesMathRand: the shared seed-1 stream is
// rand.NewSource(1) value for value, through the prefix and past it,
// by every method the scheduler or a caller can reach.
func TestSeed1StreamMatchesMathRand(t *testing.T) {
	t.Run("Uint64", func(t *testing.T) {
		got, want := &seed1Source{}, rand.NewSource(1).(rand.Source64)
		for i := 0; i < streamLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("value %d: %d, want %d", i, g, w)
			}
		}
	})
	t.Run("Int63", func(t *testing.T) {
		got, want := &seed1Source{}, rand.NewSource(1)
		for i := 0; i < streamLen; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("value %d: %d, want %d", i, g, w)
			}
		}
	})
	t.Run("Intn", func(t *testing.T) {
		got, want := newRNG(1), rand.New(rand.NewSource(1))
		for i := 0; i < streamLen; i++ {
			if g, w := got.Intn(2), want.Intn(2); g != w {
				t.Fatalf("draw %d: %d, want %d", i, g, w)
			}
		}
	})
	t.Run("Perm", func(t *testing.T) {
		// Perm(n) draws n values, some rejection-sampled.
		got, want := newRNG(1), rand.New(rand.NewSource(1))
		for drawn, n := 0, 1; drawn < streamLen; drawn, n = drawn+n, n%7+1 {
			if g, w := fmt.Sprint(got.Perm(n)), fmt.Sprint(want.Perm(n)); g != w {
				t.Fatalf("Perm(%d) after %d draws: %s, want %s", n, drawn, g, w)
			}
		}
	})
	t.Run("Seed", func(t *testing.T) {
		src := &seed1Source{}
		for i := 0; i < seed1Prefix+5; i++ {
			src.Uint64()
		}
		for _, seed := range []int64{7, 1} {
			src.Seed(seed)
			want := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < seed1Prefix+5; i++ {
				if g, w := src.Uint64(), want.Uint64(); g != w {
					t.Fatalf("after Seed(%d), value %d: %d, want %d", seed, i, g, w)
				}
			}
		}
	})
}

// longRun builds a program that draws far more scheduler values than
// the shared prefix holds: eight parallel chains of tell/retract pairs,
// one Intn(2) per parallel node visited.
func longRun(opts ...MachineOption[float64]) *Machine[float64] {
	s, cs := negotiationSpace()
	chains := make([]Agent[float64], 8)
	for k := range chains {
		var a Agent[float64] = Success[float64]{}
		for i := 0; i < 60; i++ {
			a = Tell[float64]{C: cs["c1"], Next: Retract[float64]{C: cs["c1"], Next: a}}
		}
		chains[k] = a
	}
	return NewMachine(s, Par(chains...), opts...)
}

// runTrace runs m to success and renders its trace.
func runTrace(m *Machine[float64]) (string, error) {
	status, err := m.Run(10000)
	if err == nil && status != Succeeded {
		err = fmt.Errorf("status %v", status)
	}
	var b strings.Builder
	for _, ev := range m.Trace() {
		fmt.Fprintf(&b, "%d %s [%s] %v\n", ev.Step, ev.Rule, ev.Agent, ev.Blevel)
	}
	return b.String(), err
}

// TestSeed1MachinesShareTheStream: default-seeded machines and
// WithSeed(1) machines, sequential or concurrent (run it under -race),
// all follow the schedule a freshly seeded rand.NewSource(1) gives.
func TestSeed1MachinesShareTheStream(t *testing.T) {
	ref := longRun(WithUnboundedTrace[float64]())
	ref.rng = rand.New(rand.NewSource(1))
	want, err := runTrace(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts []MachineOption[float64]
	}{
		{"default seed", nil},
		{"WithSeed(1)", []MachineOption[float64]{WithSeed[float64](1)}},
	} {
		got, err := runTrace(longRun(append(c.opts, WithUnboundedTrace[float64]())...))
		if err != nil || got != want {
			t.Fatalf("%s machine diverged from rand.NewSource(1) (err %v)", c.name, err)
		}
	}
	if got, _ := runTrace(longRun(WithUnboundedTrace[float64](), WithSeed[float64](2))); got == want {
		t.Fatal("seed 2 followed seed 1's schedule")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := runTrace(longRun(WithUnboundedTrace[float64]())); err != nil || got != want {
				t.Errorf("concurrent default-seed machine diverged from rand.NewSource(1) (err %v)", err)
			}
		}()
	}
	wg.Wait()
}

// TestLongRunReadsPastThePrefix: the long-run program really does
// outlast the shared prefix, so the tests above cover the fallback.
func TestLongRunReadsPastThePrefix(t *testing.T) {
	m := longRun()
	src := &seed1Source{}
	m.rng = rand.New(src)
	if _, err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	if src.src == nil {
		t.Fatalf("run drew only %d values, inside the %d-value prefix", src.pos, seed1Prefix)
	}
}
