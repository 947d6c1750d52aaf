package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Key is a content hash: equal content yields equal keys, and
// distinct well-formed content colliding would require a SHA-256
// collision. Keys are comparable and usable as map keys.
type Key [sha256.Size]byte

// Hasher accumulates canonical content into a Key. Every field write
// is length- or width-prefixed, so concatenation ambiguities ("ab"+"c"
// vs "a"+"bc") cannot alias keys, and every Hasher starts from a
// domain-separation tag so keys from different call sites live in
// disjoint keyspaces. The content is buffered and hashed once, by
// Sum: a plan key is about a hundred bytes, and buffering them costs
// one allocation where streaming each field into a digest cost one
// per field.
type Hasher struct {
	buf []byte
}

// NewHasher returns a hasher domain-separated by tag.
func NewHasher(tag string) *Hasher {
	h := &Hasher{buf: make([]byte, 0, 256)}
	h.Str(tag)
	return h
}

func (h *Hasher) uvarint(n uint64) { h.buf = binary.AppendUvarint(h.buf, n) }

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.uvarint(uint64(len(s)))
	h.buf = append(h.buf, s...)
}

// Int writes a signed integer.
func (h *Hasher) Int(n int) { h.buf = binary.AppendVarint(h.buf, int64(n)) }

// Float writes a float64 by its exact bit pattern, so values that
// compare equal but differ in bits (-0 vs 0) hash apart — the
// conservative direction for a memo key.
func (h *Hasher) Float(f float64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(f))
}

// Bool writes a boolean.
func (h *Hasher) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	h.buf = append(h.buf, b)
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
func (h *Hasher) Sum() Key { return sha256.Sum256(h.buf) }
