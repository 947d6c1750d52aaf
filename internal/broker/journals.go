package broker

import (
	"context"
	"fmt"
	"net/http"

	"softsoa/internal/obs"
	"softsoa/internal/obs/journal"
)

// JournalHeader is the response header naming the flight-recorder
// journal a negotiation, renegotiation or composition produced, so a
// client can fetch GET /v1/negotiations/{id}/journal without parsing
// the body.
const JournalHeader = "X-Softsoa-Journal"

// newJournal mints a journal for one request, correlated with the
// request's trace id and wired into the drop-accounting metric.
func (s *Server) newJournal(ctx context.Context, kind string) *journal.Journal {
	var traceID string
	if t := obs.TraceFrom(ctx); t != nil {
		traceID = t.ID()
	}
	j := journal.New(journal.DefaultCapacity, journal.Meta{Kind: kind, Trace: traceID})
	j.SetOnDrop(func(n int64) { s.bm.journalDropped.Add(n) })
	return j
}

// keepJournal stores the finished journal under its final id, evicting
// the oldest retained journal beyond the retention bound, stamps the
// response header, and hands the journal to the configured sink
// (brokerd -journal-dir). Renegotiations re-store the same journal
// under the same id, which refreshes nothing: the id keeps its
// original retention slot.
func (s *Server) keepJournal(w http.ResponseWriter, id string, j *journal.Journal) {
	s.storeJournal(id, j)
	w.Header().Set(JournalHeader, id)
	if s.journalSink != nil {
		s.journalSink(j)
	}
}

// storeJournal retains the journal under id (FIFO eviction), without
// the response header or sink side effects — crash recovery uses it
// directly when re-attaching replayed journals.
func (s *Server) storeJournal(id string, j *journal.Journal) {
	j.SetID(id)
	var evicted []string
	s.mu.Lock()
	if _, exists := s.journals[id]; !exists {
		s.journalIDs = append(s.journalIDs, id)
	}
	s.journals[id] = j
	for len(s.journalIDs) > s.journalRetention {
		old := s.journalIDs[0]
		s.journalIDs = s.journalIDs[1:]
		delete(s.journals, old)
		evicted = append(evicted, old)
	}
	s.mu.Unlock()
	for _, old := range evicted {
		s.logger.Debug("journal evicted", "journal", old)
	}
}

// journalByID looks up a retained journal.
func (s *Server) journalByID(id string) (*journal.Journal, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.journals[id]
	return j, ok
}

// nextJournalID mints a fresh id with the given prefix ("neg" for
// failed negotiations, "comp" for compositions; successful
// negotiations use their SLA id instead).
func (s *Server) nextJournalID(prefix string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("%s-%d", prefix, s.nextID)
}

// handleJournal serves a retained flight-recorder journal: indented
// JSON by default, the exact dump format under ?format=jsonl (the
// same bytes brokerd -journal-dir writes and softsoa-replay reads).
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.journalByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown journal %q", id))
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		//lint:ignore errcheck the response write is best-effort; a failed write means the client is gone
		_ = j.WriteJSONL(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	//lint:ignore errcheck the response write is best-effort; a failed write means the client is gone
	_ = j.WriteJSON(w)
}
