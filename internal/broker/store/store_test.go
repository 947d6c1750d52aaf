package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func appendN(t *testing.T, s Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		data, _ := json.Marshal(map[string]int{"i": i})
		if _, err := s.Append("op", data); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	appendN(t, m, 3)
	if err := m.WriteSnapshot([]byte(`{"n":3}`), 3); err != nil {
		t.Fatal(err)
	}
	appendN(t, m, 2)
	rec, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != `{"n":3}` || rec.SnapshotSeq != 3 {
		t.Errorf("snapshot = %q seq %d, want {\"n\":3} seq 3", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Seq != 4 || rec.Tail[1].Seq != 5 {
		t.Errorf("tail = %+v, want seqs 4,5", rec.Tail)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 4)
	if err := s.WriteSnapshot([]byte(`{"state":1}`), 2); err != nil {
		t.Fatal(err)
	}
	// Records 3 and 4 were covered... no: snapshot says upToSeq 2, so
	// 3,4 are gone with the WAL reset — that is the caller's contract
	// violation to avoid; here we assert the reset semantics, then
	// append fresh tail records.
	appendN(t, s, 2) // seqs 5, 6
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != `{"state":1}` || rec.SnapshotSeq != 2 {
		t.Errorf("snapshot = %q seq %d", rec.Snapshot, rec.SnapshotSeq)
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Seq != 5 || rec.Tail[1].Seq != 6 {
		t.Errorf("tail = %+v, want seqs 5,6", rec.Tail)
	}
	if rec.Truncated != 0 {
		t.Errorf("truncated = %d, want 0", rec.Truncated)
	}
	// The sequence counter resumes after the newest durable record.
	seq, err := s2.Append("op", nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Errorf("next seq = %d, want 7", seq)
	}
}

func TestFileTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: a partial frame with no newline.
	walPath := filepath.Join(dir, WALName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":4,"ty`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("tail = %d records, want 3", len(rec.Tail))
	}
	if rec.Truncated != 1 {
		t.Errorf("truncated = %d, want 1", rec.Truncated)
	}
	// The torn bytes are physically gone: a third open sees a clean log.
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "deadbeef") {
		t.Errorf("torn frame still present after repair:\n%s", raw)
	}
	// Appends continue after the repaired tail.
	if seq, err := s2.Append("op", nil); err != nil || seq != 4 {
		t.Errorf("append after repair: seq %d err %v, want 4 nil", seq, err)
	}
}

func TestFileCorruptRecordEndsValidPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second record's payload: its CRC no
	// longer matches, so recovery keeps only the first record even
	// though the line is complete.
	lines := strings.SplitAfter(string(raw), "\n")
	second := []byte(lines[1])
	second[len(second)/2] ^= 0x01
	corrupted := lines[0] + string(second) + `00000000 {"seq":3,"type":"op"}` + "\n"
	if err := os.WriteFile(walPath, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 1 {
		t.Fatalf("tail = %+v, want the single valid record", rec.Tail)
	}
	if rec.Truncated != 2 {
		t.Errorf("truncated = %d, want 2 (corrupt record + everything after it)", rec.Truncated)
	}
}

func TestFileWriteFaults(t *testing.T) {
	t.Run("enospc", func(t *testing.T) {
		dir := t.TempDir()
		enospc := errors.New("no space left on device")
		fail := true
		s, err := Open(dir, WithWriteFault(func(frame []byte) (int, error) {
			if fail {
				return 0, enospc
			}
			return len(frame), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append("op", nil); !errors.Is(err, enospc) {
			t.Fatalf("append under ENOSPC: %v, want wrapped fault", err)
		}
		// The failed record consumed no sequence number and left no bytes.
		fail = false
		if seq, err := s.Append("op", nil); err != nil || seq != 1 {
			t.Errorf("append after ENOSPC: seq %d err %v, want 1 nil", seq, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("torn write", func(t *testing.T) {
		dir := t.TempDir()
		torn := errors.New("write torn by power loss")
		var tear bool
		s, err := Open(dir, WithWriteFault(func(frame []byte) (int, error) {
			if tear {
				return len(frame) / 2, torn
			}
			return len(frame), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, s, 2)
		tear = true
		if _, err := s.Append("op", []byte(`{"x":1}`)); !errors.Is(err, torn) {
			t.Fatalf("torn append error = %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Recovery cuts the half-written frame and keeps the two good
		// records.
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		rec, err := s2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Tail) != 2 {
			t.Errorf("tail = %d records, want 2", len(rec.Tail))
		}
		if rec.Truncated != 1 {
			t.Errorf("truncated = %d, want 1", rec.Truncated)
		}
	})
}

func TestFileSnapshotAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendN(t, s, 1)
		state := fmt.Sprintf(`{"gen":%d}`, i)
		if err := s.WriteSnapshot([]byte(state), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// No temp files linger, and the newest snapshot won.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != `{"gen":2}` || rec.SnapshotSeq != 3 || len(rec.Tail) != 0 {
		t.Errorf("recovery = snapshot %q seq %d tail %d", rec.Snapshot, rec.SnapshotSeq, len(rec.Tail))
	}
}

// TestFileStaleWALAfterSnapshotCrash models a crash between the
// snapshot rename and the WAL reset: the old WAL still holds records
// the snapshot covers, and recovery must skip them.
func TestFileStaleWALAfterSnapshotCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-write the snapshot covering seq 2, leaving the WAL as-is —
	// exactly the state after a crash mid-WriteSnapshot.
	doc, _ := json.Marshal(snapshotFile{V: 1, Seq: 2, State: []byte(`{"covered":2}`)})
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 2 || len(rec.Tail) != 1 || rec.Tail[0].Seq != 3 {
		t.Errorf("recovery = seq %d tail %+v, want snapshot 2 + tail seq 3", rec.SnapshotSeq, rec.Tail)
	}
}

func TestFileCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open over a corrupt snapshot should fail loudly, not guess")
	}
}

func TestFileRecoverTwice(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(); err == nil {
		t.Fatal("second Recover should fail")
	}
}

// TestFileSnapshotBytes: the snapshot file holds exactly the bytes
// json.Marshal gives for its envelope, though the state is written
// into it as it is rather than re-encoded — including states with
// characters json.Marshal escapes for HTML, and an empty state.
func TestFileSnapshotBytes(t *testing.T) {
	escaped, err := json.Marshal(map[string]any{
		"note":  "<b>a & b</b>",
		"line":  "a\u2028b\u2029c",
		"slas":  []any{map[string]any{"id": "sla-1", "sigma": "AAAA+/8="}},
		"level": 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, state := range [][]byte{escaped, []byte(`{"covered":2}`), nil} {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		seq := uint64(1) << (10 * i)
		if err := s.WriteSnapshot(state, seq); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, SnapshotName))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snapshotFile{V: 1, Seq: seq, State: state})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("state %d: snapshot file\n%s\nwant\n%s", i, got, want)
		}
	}
}
