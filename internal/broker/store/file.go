package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// State file names inside a File store's directory.
const (
	// WALName is the append-only write-ahead log of mutation records.
	WALName = "wal.log"
	// SnapshotName is the atomically replaced snapshot document.
	SnapshotName = "snapshot.json"
)

// WAL line format: "%08x %s\n" — the IEEE CRC-32 of the JSON record
// in fixed-width hex, a space, the record, a newline. The JSON is the
// same byte-stable encoding discipline as the flight recorder's
// journal lines: no timestamps, struct-ordered fields, so identical
// mutation sequences produce identical logs.
const walCRCLen = 8

// WriteFault intercepts a WAL frame about to be written, for fault
// injection (internal/faults): it returns how many of the frame's
// bytes actually reach the file and the error Append reports. A
// short count with a non-nil error simulates a torn write — the
// partial frame lands on disk and recovery must cut it; (0, ENOSPC)
// simulates a full disk. A nil WriteFault writes everything.
type WriteFault func(frame []byte) (int, error)

// FileOption configures a File store.
type FileOption func(*File)

// WithWriteFault installs a write fault hook (see WriteFault).
func WithWriteFault(f WriteFault) FileOption {
	return func(s *File) { s.fault = f }
}

// WithoutSync disables the fsync after each append — faster, but a
// crash can lose acknowledged records. Tests and benchmarks only.
func WithoutSync() FileOption {
	return func(s *File) { s.noSync = true }
}

// File is a disk-backed Store: an append-only checksummed WAL plus an
// atomically replaced snapshot, both under one state directory.
type File struct {
	dir    string
	fault  WriteFault
	noSync bool

	mu       sync.Mutex
	w        *os.File  // open WAL append handle; guarded by mu
	seq      uint64    // last assigned sequence number; guarded by mu
	recovery *Recovery // cached by Open, returned once by Recover; guarded by mu
	closed   bool      // guarded by mu
}

// Open opens (creating if needed) the state directory, scans the WAL
// — truncating a torn or corrupt tail back to the last valid record —
// and resumes the sequence counter after the newest durable record.
// The recovery result is cached for the Recover call.
func Open(dir string, opts ...FileOption) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create state dir %s: %w", dir, err)
	}
	s := &File{dir: dir}
	for _, o := range opts {
		o(s)
	}
	// The store is not shared until Open returns, so the lock is
	// uncontended; holding it keeps the guarded-field discipline
	// uniform.
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.load()
	if err != nil {
		return nil, err
	}
	s.recovery = rec
	s.seq = rec.SnapshotSeq
	if n := len(rec.Tail); n > 0 {
		s.seq = rec.Tail[n-1].Seq
	}
	w, err := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open WAL: %w", err)
	}
	s.w = w
	return s, nil
}

func (s *File) walPath() string      { return filepath.Join(s.dir, WALName) }
func (s *File) snapshotPath() string { return filepath.Join(s.dir, SnapshotName) }

// snapshotFile is the on-disk snapshot envelope.
type snapshotFile struct {
	V     int             `json:"v"`
	Seq   uint64          `json:"seq"`
	State json.RawMessage `json:"state"`
}

// load reads the snapshot and scans + repairs the WAL.
func (s *File) load() (*Recovery, error) {
	rec := &Recovery{}
	if raw, err := os.ReadFile(s.snapshotPath()); err == nil {
		var sf snapshotFile
		if err := json.Unmarshal(raw, &sf); err != nil {
			// The snapshot is written atomically, so a damaged one is
			// disk corruption, not a crash artifact; refuse to guess.
			return nil, fmt.Errorf("store: corrupt snapshot %s: %w", s.snapshotPath(), err)
		}
		rec.Snapshot = sf.State
		rec.SnapshotSeq = sf.Seq
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}

	raw, err := os.ReadFile(s.walPath())
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read WAL: %w", err)
	}
	records, validLen, truncated := scanWAL(raw)
	if truncated > 0 {
		if err := os.Truncate(s.walPath(), int64(validLen)); err != nil {
			return nil, fmt.Errorf("store: truncate torn WAL tail: %w", err)
		}
		rec.Truncated = truncated
	}
	for _, r := range records {
		if r.Seq > rec.SnapshotSeq {
			rec.Tail = append(rec.Tail, r)
		}
	}
	return rec, nil
}

// scanWAL walks the log, returning the valid records, the byte length
// of the valid prefix, and how many trailing torn/corrupt records (or
// record fragments) follow it. Validity is strict: a complete
// newline-terminated line, a well-formed CRC prefix matching the
// record bytes, JSON that decodes to a Record, and a sequence number
// strictly above its predecessor. The first violation ends the valid
// prefix — nothing after it is trusted, even if it frames correctly.
func scanWAL(raw []byte) (records []Record, validLen int, truncated int) {
	offset := 0
	var lastSeq uint64
	for offset < len(raw) {
		nl := bytes.IndexByte(raw[offset:], '\n')
		if nl < 0 {
			break // torn final line, no newline
		}
		line := raw[offset : offset+nl]
		r, ok := parseWALLine(line, lastSeq)
		if !ok {
			break
		}
		records = append(records, r)
		lastSeq = r.Seq
		offset += nl + 1
	}
	validLen = offset
	// Count what is being discarded: complete lines plus a final
	// fragment.
	rest := raw[offset:]
	for len(rest) > 0 {
		truncated++
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		rest = rest[nl+1:]
	}
	return records, validLen, truncated
}

// parseWALLine validates one framed record line (without the
// newline).
func parseWALLine(line []byte, lastSeq uint64) (Record, bool) {
	if len(line) < walCRCLen+2 || line[walCRCLen] != ' ' {
		return Record{}, false
	}
	want, err := strconv.ParseUint(string(line[:walCRCLen]), 16, 32)
	if err != nil {
		return Record{}, false
	}
	payload := line[walCRCLen+1:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, false
	}
	if r.Seq <= lastSeq {
		return Record{}, false
	}
	return r, true
}

// Append implements Store: frame, optional fault, write, fsync.
func (s *File) Append(typ string, data []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	payload, err := json.Marshal(Record{Seq: s.seq + 1, Type: typ, Data: data})
	if err != nil {
		return 0, fmt.Errorf("store: encode record: %w", err)
	}
	frame := make([]byte, 0, walCRCLen+2+len(payload))
	frame = fmt.Appendf(frame, "%08x ", crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	frame = append(frame, '\n')

	n := len(frame)
	var faultErr error
	if s.fault != nil {
		n, faultErr = s.fault(frame)
		if n > len(frame) {
			n = len(frame)
		}
	}
	if n > 0 {
		if _, werr := s.w.Write(frame[:n]); werr != nil {
			return 0, fmt.Errorf("store: append WAL: %w", werr)
		}
		if !s.noSync {
			if serr := s.w.Sync(); serr != nil {
				return 0, fmt.Errorf("store: sync WAL: %w", serr)
			}
		}
	}
	if faultErr != nil {
		return 0, fmt.Errorf("store: append WAL: %w", faultErr)
	}
	s.seq++
	return s.seq, nil
}

// WriteSnapshot implements Store: the snapshot is replaced
// atomically, then the WAL is reset (also atomically) since every
// covered record is now redundant. A crash between the two steps is
// safe — recovery skips WAL records with Seq <= the snapshot's.
//
// state must be empty or JSON as json.Marshal encodes it (compact,
// HTML escaped), as the broker's snapshots are. It is written into the
// snapshotFile envelope as it is, not re-encoded, so the file holds
// the bytes json.Marshal of the envelope would, without a second copy
// of the state.
func (s *File) WriteSnapshot(state []byte, upToSeq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	doc := make([]byte, 0, len(state)+48)
	doc = append(doc, `{"v":1,"seq":`...)
	doc = strconv.AppendUint(doc, upToSeq, 10)
	doc = append(doc, `,"state":`...)
	if len(state) == 0 {
		doc = append(doc, "null"...)
	}
	doc = append(doc, state...)
	doc = append(doc, '}')
	if err := atomicWriteFile(s.snapshotPath(), doc, 0o644); err != nil {
		return err
	}
	// Reset the WAL: swap in a fresh empty file and reopen the append
	// handle on it.
	if err := s.w.Close(); err != nil {
		return fmt.Errorf("store: close WAL for reset: %w", err)
	}
	if err := atomicWriteFile(s.walPath(), nil, 0o644); err != nil {
		return err
	}
	w, err := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen WAL: %w", err)
	}
	s.w = w
	return nil
}

// Recover implements Store, returning the state Open loaded.
func (s *File) Recover() (*Recovery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	if s.recovery == nil {
		return nil, fmt.Errorf("store: Recover called twice")
	}
	rec := s.recovery
	s.recovery = nil
	return rec, nil
}

// Close implements Store.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.w.Close()
}
