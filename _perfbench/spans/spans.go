// Package spans is the file format between the traced server binary
// and the benchmark driver: the intervals the server timed around each
// layer, written as one JSON document at shutdown, and the Go runtime
// figures it answers while it runs.
package spans

import "time"

// Interval is one timed call, in Unix nanoseconds.
type Interval struct {
	// ID is the request's trace id, when the call belongs to one.
	ID    string `json:"id,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	// Bytes is the payload the call wrote (store calls only).
	Bytes int `json:"bytes,omitempty"`
}

// Dur is the interval's length.
func (iv Interval) Dur() time.Duration { return time.Duration(iv.End - iv.Start) }

// Runtime is the server's Go runtime figures.
type Runtime struct {
	NumGC     uint32 `json:"num_gc"`
	HeapInuse uint64 `json:"heap_inuse"`
}

// Dump is the document written at shutdown.
type Dump struct {
	// Roots are the handler calls, one per request.
	Roots []Interval `json:"roots"`
	// Spans are the broker's own pipeline spans, by request id.
	Spans []Interval `json:"spans"`
	// Appends and Snapshots are the store calls; Sweeps the SLO sweeps.
	Appends     []Interval `json:"appends"`
	Snapshots   []Interval `json:"snapshots"`
	Sweeps      []Interval `json:"sweeps"`
	TracesTotal int64      `json:"traces_total"`
	TracesKept  int        `json:"traces_kept"`
	// Cache holds the solve cache's counters by tier.
	Cache     map[string]CacheTier `json:"cache"`
	Providers int                  `json:"providers"`
	Runtime   Runtime              `json:"runtime"`
}

// CacheTier is one cache tier's counters.
type CacheTier struct {
	Hits, Misses, Evictions int64
}
