package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"softsoa/internal/core"
)

// Key is a content hash: equal content yields equal keys, and
// distinct well-formed content colliding would require a SHA-256
// collision. Keys are comparable and usable as map keys.
type Key [sha256.Size]byte

// Hasher accumulates canonical content into a Key. Every field write
// is length- or width-prefixed, so concatenation ambiguities ("ab"+"c"
// vs "a"+"bc") cannot alias keys, and every Hasher starts from a
// domain-separation tag so keys from different call sites (problem
// hashes, negotiation plans, renegotiation plans) live in disjoint
// keyspaces.
type Hasher struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

// NewHasher returns a hasher domain-separated by tag.
func NewHasher(tag string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(tag)
	return h
}

func (h *Hasher) uvarint(n uint64) {
	k := binary.PutUvarint(h.buf[:], n)
	//lint:ignore errcheck hash.Hash.Write never fails by contract
	h.h.Write(h.buf[:k])
}

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.uvarint(uint64(len(s)))
	//lint:ignore errcheck hash.Hash.Write never fails by contract
	h.h.Write([]byte(s))
}

// Int writes a signed integer.
func (h *Hasher) Int(n int) {
	k := binary.PutVarint(h.buf[:], int64(n))
	//lint:ignore errcheck hash.Hash.Write never fails by contract
	h.h.Write(h.buf[:k])
}

// Uint64 writes an unsigned integer.
func (h *Hasher) Uint64(n uint64) { h.uvarint(n) }

// Float writes a float64 by its exact bit pattern, so values that
// compare equal but differ in bits (-0 vs 0) hash apart — the
// conservative direction for a memo key.
func (h *Hasher) Float(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	//lint:ignore errcheck hash.Hash.Write never fails by contract
	h.h.Write(b[:])
}

// Bool writes a boolean.
func (h *Hasher) Bool(v bool) {
	if v {
		//lint:ignore errcheck hash.Hash.Write never fails by contract
		h.h.Write([]byte{1})
	} else {
		//lint:ignore errcheck hash.Hash.Write never fails by contract
		h.h.Write([]byte{0})
	}
}

// Floats writes a length-prefixed run of float64 bit patterns in a
// single hash write — the bulk form of Float, sized for constraint
// tables where per-value Write calls would dominate.
func (h *Hasher) Floats(vs []float64) {
	h.uvarint(uint64(len(vs)))
	buf := make([]byte, 8*len(vs))
	for i, f := range vs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	//lint:ignore errcheck hash.Hash.Write never fails by contract
	h.h.Write(buf)
}

// FloatPtr writes an optional float64: presence then value.
func (h *Hasher) FloatPtr(f *float64) {
	h.Bool(f != nil)
	if f != nil {
		h.Float(*f)
	}
}

// Sum finalises the key. The hasher may keep accumulating afterwards;
// each Sum reflects everything written so far.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// ProblemKey hashes an SCSP's full content — semiring name, variables
// with their domains, the variables of interest, and every constraint
// (scope, then the table in mixed-radix order) — plus any caller tags
// (solver configuration, tier discriminators). Problems with equal
// canonical content hash equal regardless of how they were built.
//
// float64-carried constraints hash their tables by exact bit pattern
// in bulk — the hot path for every in-tree semiring but Set and
// Product — so keying costs a small fraction of the propagation or
// search it memoises. Other carriers fall back to the byte-stable
// Constraint.String rendering. The two encodings never mix for one
// carrier type, so keys stay canonical within each keyspace.
func ProblemKey[T any](p *core.Problem[T], tags ...string) Key {
	h := NewHasher("softsoa/problem")
	s := p.Space()
	h.Str(s.Semiring().Name())
	vars := s.Variables()
	h.Int(len(vars))
	for _, v := range vars {
		h.Str(string(v))
		dom := s.Domain(v)
		h.Int(len(dom))
		for _, d := range dom {
			h.Str(d.Label)
			h.Float(d.Num)
		}
	}
	con := p.Con()
	h.Int(len(con))
	for _, v := range con {
		h.Str(string(v))
	}
	cs := p.Constraints()
	h.Int(len(cs))
	var fbuf []float64
	for _, c := range cs {
		scope := c.Scope()
		h.Int(len(scope))
		for _, v := range scope {
			h.Str(string(v))
		}
		if cf, ok := any(c).(*core.Constraint[float64]); ok {
			fbuf = cf.Values(fbuf[:0])
			h.Floats(fbuf)
		} else {
			h.Str(c.String())
		}
	}
	h.Int(len(tags))
	for _, t := range tags {
		h.Str(t)
	}
	return h.Sum()
}
