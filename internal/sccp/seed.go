package sccp

import (
	"math/rand"
	"sync"
)

// seed1Prefix is the number of values of rand.NewSource(1)'s stream
// that default-seeded machines share. A broker negotiation draws a
// few dozen of them.
const seed1Prefix = 1024

// seed1Values is the first seed1Prefix values of rand.NewSource(1)'s
// Uint64 stream, computed once per process on first use and read-only
// afterwards.
var seed1Values = sync.OnceValue(func() []uint64 {
	src := rand.NewSource(1).(rand.Source64)
	vals := make([]uint64, seed1Prefix)
	for i := range vals {
		vals[i] = src.Uint64()
	}
	return vals
})

// seed1Source replays rand.NewSource(1) value for value. Seeding a
// math/rand source fills a 607-word state, far more work than the few
// dozen values a negotiation draws, so a machine on the default seed
// reads the shared prefix through its own cursor and seeds a real
// source only when a run outlasts the prefix.
type seed1Source struct {
	pos int
	src rand.Source64 // a real source; nil while reading the prefix
}

// Uint64 implements rand.Source64.
func (s *seed1Source) Uint64() uint64 {
	if s.src == nil {
		vals := seed1Values()
		if s.pos < len(vals) {
			s.pos++
			return vals[s.pos-1]
		}
		s.src = rand.NewSource(1).(rand.Source64)
		for range vals {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// Int63 implements rand.Source with rand.NewSource's mask.
func (s *seed1Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed implements rand.Source: the stream restarts from seed.
func (s *seed1Source) Seed(seed int64) {
	s.pos, s.src = 0, nil
	if seed != 1 {
		s.src = rand.NewSource(seed).(rand.Source64)
	}
}

// newRNG returns the scheduler's generator for seed: the shared
// stream for seed 1, a freshly seeded source otherwise.
func newRNG(seed int64) *rand.Rand {
	if seed == 1 {
		return rand.New(&seed1Source{})
	}
	return rand.New(rand.NewSource(seed))
}
