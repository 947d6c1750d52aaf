package broker

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"softsoa/internal/broker/store"
	"softsoa/internal/core"
	"softsoa/internal/obs/journal"
	"softsoa/internal/sccp"
	"softsoa/internal/soa"
)

// Durability layer: every state mutation the broker acknowledges is
// appended to the configured store.Store as one typed JSON record, and
// every snapshotEvery records the full state is compacted into a
// snapshot. A snapshot holds each SLA's state, not its history: the
// binding, the monitor counts and σ as raw IEEE-754 bits, installed as
// they are (after a rounded ÷, σ is no function of offer and
// requirement). The WAL tail replays *through the engine*: a
// negotiation record re-runs negotiateOne with the recorded winner and
// offer, a renegotiation record re-runs Session.Renegotiate on the
// live store — the same deterministic machinery the flight recorder
// relies on, so recovered sessions are bit-exact, not approximations.
// A v1 snapshot's binding histories replay through the same helpers.
//
// Breaker effects are not re-derived: each record carries the breaker
// feedback the live request generated (success / failure / trip per
// provider), applied verbatim on replay. That keeps recovery
// independent of the breakers' wall-clock open-timeout behaviour.

// WAL record types.
const (
	recRegister    = "register"
	recNegotiate   = "negotiate"
	recNegFail     = "negfail"
	recRenegotiate = "renegotiate"
	recObserve     = "observe"
	recCompose     = "compose"
	// recSLOFailover is only replayed: earlier brokers journalled
	// sweep-triggered failovers under it, with the fields of an
	// observeRecord minus the observation.
	recSLOFailover = "slofailover"
)

// feedbackRecord is one breaker effect a request produced.
type feedbackRecord struct {
	Provider string `json:"provider"`
	// Kind is "success", "failure" or "trip".
	Kind string `json:"kind"`
}

// registerRecord journals POST /v1/providers.
type registerRecord struct {
	Doc soa.Document `json:"doc"`
}

// negotiateRecord journals a successful negotiation: the minted SLA
// id, the client request, and the winning provider with the offer it
// negotiated under (captured at negotiation time — the registry may be
// republished later).
type negotiateRecord struct {
	ID       string           `json:"id"`
	Req      Request          `json:"req"`
	Provider string           `json:"provider"`
	Offer    soa.Attribute    `json:"offer"`
	Feedback []feedbackRecord `json:"feedback,omitempty"`
}

// negFailRecord journals a negotiation that found no agreement: it
// still minted a journal id (consuming the shared counter) and fed
// the breakers.
type negFailRecord struct {
	ID       string           `json:"id"`
	Feedback []feedbackRecord `json:"feedback,omitempty"`
}

// renegotiateRecord journals an *accepted* renegotiation; rejected
// ones leave no durable state behind.
type renegotiateRecord struct {
	ID          string        `json:"id"`
	Requirement soa.Attribute `json:"requirement"`
	Lower       *float64      `json:"lower,omitempty"`
	Upper       *float64      `json:"upper,omitempty"`
}

// observeRecord journals one observation; when it triggered a
// failover, the new binding is recorded the same way a negotiation is.
// Every failover is journalled this way.
type observeRecord struct {
	ID         string           `json:"id"`
	Level      float64          `json:"level"`
	Violated   bool             `json:"violated"`
	FailedOver bool             `json:"failedOver,omitempty"`
	Provider   string           `json:"provider,omitempty"`
	Offer      *soa.Attribute   `json:"offer,omitempty"`
	Feedback   []feedbackRecord `json:"feedback,omitempty"`
}

// composeRecord journals a composition's minted journal id, keeping
// the shared id counter in sync across a restart.
type composeRecord struct {
	ID string `json:"id"`
}

// histOp is one step of a v1 snapshot entry's binding history: the
// initial negotiation, an accepted renegotiation or a failover.
type histOp struct {
	// Kind is "negotiate", "renegotiate" or "failover".
	Kind        string         `json:"kind"`
	Provider    string         `json:"provider,omitempty"`
	Offer       *soa.Attribute `json:"offer,omitempty"`
	Requirement *soa.Attribute `json:"requirement,omitempty"`
	Lower       *float64       `json:"lower,omitempty"`
	Upper       *float64       `json:"upper,omitempty"`
}

// monitorSnap persists a monitor's counters.
type monitorSnap struct {
	Observations int64   `json:"observations"`
	Violations   int64   `json:"violations"`
	Worst        float64 `json:"worst"`
	HasWorst     bool    `json:"hasWorst"`
}

// breakerSnap persists one provider's breaker.
type breakerSnap struct {
	Provider string `json:"provider"`
	State    int    `json:"state"`
	Failures int    `json:"failures"`
}

// entrySnap persists one live SLA entry: the original request, the
// binding, the requirement if renegotiations changed it, the wire
// version and σ (v1: History instead). PriorObservations and
// PriorViolations are the counts of the bindings failovers replaced.
type entrySnap struct {
	ID                string         `json:"id"`
	Req               Request        `json:"req"`
	Provider          string         `json:"provider,omitempty"`
	Offer             soa.Attribute  `json:"offer"`
	Requirement       *soa.Attribute `json:"requirement,omitempty"`
	Version           int            `json:"version,omitempty"`
	Sigma             sigmaSnap      `json:"sigma"`
	History           []histOp       `json:"history,omitempty"`
	Monitor           monitorSnap    `json:"monitor"`
	PriorObservations int64          `json:"priorObservations,omitempty"`
	PriorViolations   int64          `json:"priorViolations,omitempty"`
}

// sigmaSnap is a session store σ: its scope in declaration order, the
// size of its table (core.Constraint.Values order), a bitmap of the
// cells that are not the semiring's Zero, and those cells as
// little-endian IEEE-754 bits; JSON numbers carry neither the weighted
// Zero (+Inf) nor −0. Cells where a sync flag is 0 are mostly Zero.
type sigmaSnap struct {
	Scope []core.Variable `json:"scope"`
	Cells int             `json:"cells"`
	Mask  []byte          `json:"mask"`
	Bits  []byte          `json:"bits"`
}

// encodeSigma records c's table bit for bit.
func encodeSigma(c *core.Constraint[float64]) sigmaSnap {
	zero := math.Float64bits(c.Space().Semiring().Zero())
	ss := sigmaSnap{Scope: c.Scope(), Cells: c.Size(), Mask: make([]byte, (c.Size()+7)/8)}
	for i, v := range c.Values(nil) {
		if b := math.Float64bits(v); b != zero {
			ss.Mask[i/8] |= 1 << (i % 8)
			ss.Bits = binary.LittleEndian.AppendUint64(ss.Bits, b)
		}
	}
	return ss
}

// attrBits is an attribute's float fields as bits, telling −0 from 0.
func attrBits(a soa.Attribute) [2]uint64 {
	return [2]uint64{math.Float64bits(a.Base), math.Float64bits(a.PerUnit)}
}

// constraint rebuilds the recorded σ over space.
func (ss sigmaSnap) constraint(space *core.Space[float64]) (*core.Constraint[float64], error) {
	if ss.Cells < 0 || len(ss.Mask) != (ss.Cells+7)/8 {
		return nil, fmt.Errorf("σ mask of %d bytes for %d cells", len(ss.Mask), ss.Cells)
	}
	vals, bits := make([]float64, ss.Cells), ss.Bits
	for i := range vals {
		vals[i] = space.Semiring().Zero()
		if ss.Mask[i/8]&(1<<(i%8)) == 0 {
			continue
		} else if len(bits) < 8 {
			return nil, fmt.Errorf("σ bits end before its mask")
		}
		vals[i], bits = math.Float64frombits(binary.LittleEndian.Uint64(bits)), bits[8:]
	}
	return core.FromValues(space, ss.Scope, vals)
}

// snapshotDoc is the broker's full compacted state.
type snapshotDoc struct {
	// V is 2; a v1 snapshot (still read) held binding histories.
	V        int            `json:"v"`
	NextID   int            `json:"nextId"`
	Registry []soa.Document `json:"registry"`
	Breakers []breakerSnap  `json:"breakers,omitempty"`
	Entries  []entrySnap    `json:"entries"`
}

// RecoveryStats summarises a completed crash recovery.
type RecoveryStats struct {
	// SnapshotSeq is the WAL sequence the recovered snapshot covered
	// (0 when the broker started from the WAL alone).
	SnapshotSeq uint64
	// Replayed counts WAL tail records replayed through the engine.
	Replayed int
	// Truncated counts torn or corrupt records cut from the WAL tail.
	Truncated int
	// SLAs and Providers count the recovered live agreements and
	// registry documents.
	SLAs      int
	Providers int
}

// appendRecord serialises one mutation into the WAL. Callers hold
// s.persistMu.RLock() across the in-memory commit and this append, so
// a snapshot (which takes the write lock) never captures a commit
// whose record would land after the snapshot's sequence. A failed
// append is logged and counted, not propagated: the in-memory state
// is already committed and serving, it just may not survive a restart.
func (s *Server) appendRecord(typ string, v any) {
	if s.st == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		// The record types marshal by construction; reaching this is a
		// programming error worth surfacing loudly in logs.
		s.logger.Error("WAL record encode failed", "type", typ, "error", err)
		s.bm.walAppendErrors.Inc()
		return
	}
	seq, err := s.st.Append(typ, data)
	if err != nil {
		s.logger.Error("WAL append failed", "type", typ, "error", err)
		s.bm.walAppendErrors.Inc()
		return
	}
	s.lastSeq.Store(seq)
	s.bm.walRecords.Inc()
	s.persistCount.Add(1)
}

// maybeSnapshot compacts the WAL into a snapshot once enough records
// have accumulated. It runs on the request goroutine that crossed the
// threshold; the write lock quiesces concurrent mutations for the
// duration.
func (s *Server) maybeSnapshot() {
	if s.st == nil || s.snapshotEvery <= 0 || s.persistCount.Load() < int64(s.snapshotEvery) {
		return
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.persistCount.Load() < int64(s.snapshotEvery) {
		return // another request snapshotted while we waited
	}
	//lint:ignore errcheck snapshot failures are logged and counted inside snapshotLocked; the periodic path simply retries at the next threshold
	_ = s.snapshotLocked()
}

// Flush writes a final snapshot — the drain path calls it after the
// HTTP server has stopped, so the state directory is current before
// exit. It is also safe to call at any quiescent point.
func (s *Server) Flush() error {
	if s.st == nil {
		return nil
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked captures and writes the snapshot. Callers hold the
// persistMu write lock, so no commit+append is in flight and lastSeq
// is exactly the newest durable record.
func (s *Server) snapshotLocked() error {
	state, err := json.Marshal(s.snapshotState())
	if err != nil {
		s.logger.Error("snapshot encode failed", "error", err)
		return err
	}
	if err := s.st.WriteSnapshot(state, s.lastSeq.Load()); err != nil {
		s.logger.Error("snapshot write failed", "error", err)
		s.bm.walAppendErrors.Inc()
		return err
	}
	s.persistCount.Store(0)
	s.bm.snapshots.Inc()
	s.logger.Info("state snapshot written", "seq", s.lastSeq.Load())
	return nil
}

// snapshotState assembles the full broker state. Callers hold the
// persistMu write lock.
func (s *Server) snapshotState() snapshotDoc {
	doc := snapshotDoc{V: 2}
	for _, d := range s.reg.Snapshot() {
		doc.Registry = append(doc.Registry, *d)
	}
	for _, b := range s.health.States() {
		doc.Breakers = append(doc.Breakers, breakerSnap{
			Provider: b.Provider, State: int(b.State), Failures: b.Failures,
		})
	}
	s.mu.Lock()
	doc.NextID = s.nextID
	ids := make([]string, 0, len(s.entries))
	entries := make(map[string]*slaEntry, len(s.entries))
	for id, e := range s.entries {
		ids = append(ids, id)
		entries[id] = e
	}
	s.mu.Unlock()
	// Mint order ("sla-2" before "sla-10") keeps the bytes deterministic.
	sort.Slice(ids, func(i, j int) bool { return idNumber(ids[i]) < idNumber(ids[j]) })
	for _, id := range ids {
		e := entries[id]
		e.mu.Lock()
		snap := entrySnap{
			ID:                id,
			Req:               e.req,
			Provider:          e.session.provider,
			Offer:             e.session.offerAttr,
			Version:           e.version(),
			Sigma:             encodeSigma(e.session.store.Constraint()),
			PriorObservations: e.priorObs,
			PriorViolations:   e.priorViol,
		}
		// Stored only when it differs from the original, bit for bit.
		if cur, orig := e.session.reqAttr, e.req.Requirement; cur != orig || attrBits(cur) != attrBits(orig) {
			snap.Requirement = &cur
		}
		snap.Monitor.Observations, snap.Monitor.Violations, snap.Monitor.Worst, snap.Monitor.HasWorst = e.mon.counts()
		e.mu.Unlock()
		doc.Entries = append(doc.Entries, snap)
	}
	return doc
}

// Recover loads the configured store's snapshot and WAL tail and
// replays them into a freshly constructed server. It must be called
// once, before the handler serves traffic. A nil store makes it a
// no-op. Replay is strict: a record that does not reproduce its
// recorded outcome is a determinism bug and fails recovery rather
// than silently serving a diverged state.
func (s *Server) Recover(ctx context.Context) (*RecoveryStats, error) {
	if s.st == nil {
		return nil, nil
	}
	rec, err := s.st.Recover()
	if err != nil {
		return nil, err
	}
	stats := &RecoveryStats{SnapshotSeq: rec.SnapshotSeq, Truncated: rec.Truncated}
	if rec.Truncated > 0 {
		s.bm.walTruncated.Add(int64(rec.Truncated))
		s.logger.Warn("truncated torn WAL tail", "records", rec.Truncated)
	}
	s.lastSeq.Store(rec.SnapshotSeq)
	if rec.Snapshot != nil {
		if err := s.restoreSnapshot(ctx, rec.Snapshot); err != nil {
			return nil, fmt.Errorf("broker: restore snapshot: %w", err)
		}
	}
	for _, r := range rec.Tail {
		if err := s.replayRecord(ctx, r); err != nil {
			return nil, fmt.Errorf("broker: replay WAL record %d (%s): %w", r.Seq, r.Type, err)
		}
		s.lastSeq.Store(r.Seq)
		stats.Replayed++
	}
	s.mu.Lock()
	stats.SLAs = len(s.entries)
	s.mu.Unlock()
	stats.Providers = s.reg.Len()
	s.bm.slasActive.Set(float64(stats.SLAs))
	s.logger.Info("state recovered",
		"snapshotSeq", stats.SnapshotSeq, "replayed", stats.Replayed,
		"truncated", stats.Truncated, "slas", stats.SLAs, "providers", stats.Providers)
	return stats, nil
}

// restoreSnapshot rebuilds registry, breakers and every SLA entry
// from the compacted state.
func (s *Server) restoreSnapshot(ctx context.Context, state []byte) error {
	var doc snapshotDoc
	if err := json.Unmarshal(state, &doc); err != nil {
		return err
	}
	for i := range doc.Registry {
		if err := s.reg.Publish(&doc.Registry[i]); err != nil {
			return fmt.Errorf("republish %s/%s: %w", doc.Registry[i].Service, doc.Registry[i].Provider, err)
		}
	}
	for _, b := range doc.Breakers {
		s.health.RestoreBreaker(b.Provider, BreakerState(b.State), b.Failures)
	}
	for _, snap := range doc.Entries {
		e, err := s.restoreEntry(ctx, doc.V, snap)
		if err != nil {
			return fmt.Errorf("restore %s: %w", snap.ID, err)
		}
		e.mu.Lock()
		e.mon.restoreCounts(snap.Monitor)
		e.priorObs, e.priorViol = snap.PriorObservations, snap.PriorViolations
		e.mu.Unlock()
		s.mu.Lock()
		s.entries[snap.ID] = e
		s.mu.Unlock()
	}
	s.bumpNextID(doc.NextID)
	return nil
}

// restoreEntry rebuilds an entry without running the engine (v1: see
// replayHistory): the space compiles from the original request and the
// offer, the requirement constraint as Renegotiate compiles it, and σ
// is installed from its bits. The SLA's next renegotiation starts a
// fresh journal, as after an eviction.
func (s *Server) restoreEntry(ctx context.Context, v int, snap entrySnap) (*slaEntry, error) {
	if v == 1 {
		return s.replayHistory(ctx, snap.Req, snap.History)
	}
	sr, err := soa.SemiringFor(snap.Req.Metric)
	if err != nil {
		return nil, err
	}
	inst, err := newNegInstance(sr, snap.Req.Requirement, snap.Offer)
	if err != nil {
		return nil, err
	}
	sigma, err := snap.Sigma.constraint(inst.space)
	if err != nil {
		return nil, err
	}
	sess := newSession(sr, snap.Req, snap.Provider, snap.Offer, inst, core.StoreOf(sigma),
		resourceBindings(sr, sigma, inst.resourceVars))
	cur := snap.Req.Requirement
	if snap.Requirement != nil {
		cur = *snap.Requirement
	}
	if sess.reqCon, err = cur.ToConstraint(inst.space, inst.resourceVars[cur.Resource]); err != nil {
		return nil, err
	}
	sess.reqAttr, sess.version = cur, snap.Version
	e := &slaEntry{req: snap.Req}
	return e, e.bind(sess)
}

// replayHistory rebuilds a v1 entry by replaying its binding history
// through the engine, with the helpers the WAL tail replays through.
func (s *Server) replayHistory(ctx context.Context, req Request, history []histOp) (*slaEntry, error) {
	if len(history) == 0 || history[0].Kind != "negotiate" {
		return nil, fmt.Errorf("history must start with a negotiation")
	}
	e := &slaEntry{req: req}
	for i, op := range history {
		var err error
		switch {
		case (op.Kind == "negotiate" || op.Kind == "failover") && op.Offer != nil:
			err = s.replayBind(ctx, e, op.Provider, *op.Offer)
		case op.Kind == "renegotiate" && op.Requirement != nil:
			err = replayRenegotiation(ctx, e, *op.Requirement, op.Lower, op.Upper)
		default:
			err = fmt.Errorf("malformed %q op", op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("history op %d: %w", i, err)
		}
	}
	return e, nil
}

// replayBind re-runs the negotiation with the recorded winner and
// offer and binds e to it: the first binding of a new entry, or a
// failover's rebinding. The live run already proved it succeeds; a
// replay that does not is a determinism bug.
func (s *Server) replayBind(ctx context.Context, e *slaEntry, provider string, offer soa.Attribute) error {
	sr, err := soa.SemiringFor(e.req.Metric)
	if err != nil {
		return err
	}
	// Negotiated outside e.mu, as live negotiations are.
	po, sess, err := s.negotiator.negotiateOne(ctx, sr, e.req, provider, offer)
	if err != nil {
		return err
	}
	if sess == nil || po.Status != sccp.Succeeded {
		return fmt.Errorf("negotiation with %q succeeded live but ended %s on replay", provider, po.Status)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bind(sess)
}

// replayRenegotiation re-runs an accepted renegotiation on e's live
// session and rebases its monitor.
func replayRenegotiation(ctx context.Context, e *slaEntry, req soa.Attribute, lower, upper *float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	sla, err := e.session.Renegotiate(ctx, req, lower, upper)
	if err != nil {
		return err
	}
	if sla == nil {
		return fmt.Errorf("renegotiation accepted live but rejected on replay")
	}
	e.mon.Rebase(sla.AgreedLevel)
	return nil
}

// replayRecord applies one WAL tail record.
func (s *Server) replayRecord(ctx context.Context, r store.Record) error {
	switch r.Type {
	case recRegister:
		var rr registerRecord
		if err := json.Unmarshal(r.Data, &rr); err != nil {
			return err
		}
		return s.reg.Publish(&rr.Doc)
	case recNegotiate:
		var nr negotiateRecord
		if err := json.Unmarshal(r.Data, &nr); err != nil {
			return err
		}
		s.applyFeedback(nr.Feedback)
		e := &slaEntry{req: nr.Req}
		j := s.newJournal(ctx, "recovery")
		if err := s.replayBind(journal.ContextWith(ctx, j), e, nr.Provider, nr.Offer); err != nil {
			return err
		}
		s.mu.Lock()
		s.entries[nr.ID] = e
		s.mu.Unlock()
		s.storeJournal(nr.ID, j)
		s.bumpNextID(idNumber(nr.ID))
		return nil
	case recNegFail, recCompose:
		// Both mint an id; a compose record carries no feedback.
		var fr negFailRecord
		if err := json.Unmarshal(r.Data, &fr); err != nil {
			return err
		}
		s.applyFeedback(fr.Feedback)
		s.bumpNextID(idNumber(fr.ID))
		return nil
	case recRenegotiate:
		var rr renegotiateRecord
		if err := json.Unmarshal(r.Data, &rr); err != nil {
			return err
		}
		e, ok := s.entry(rr.ID)
		if !ok {
			return fmt.Errorf("renegotiation of unknown SLA %q", rr.ID)
		}
		j, ok := s.journalByID(rr.ID)
		if !ok {
			j = s.newJournal(ctx, "recovery")
		}
		if err := replayRenegotiation(journal.ContextWith(ctx, j), e, rr.Requirement, rr.Lower, rr.Upper); err != nil {
			return fmt.Errorf("%s: %w", rr.ID, err)
		}
		s.storeJournal(rr.ID, j)
		return nil
	case recObserve, recSLOFailover:
		var or observeRecord
		if err := json.Unmarshal(r.Data, &or); err != nil {
			return err
		}
		e, ok := s.entry(or.ID)
		if !ok {
			return fmt.Errorf("%s of unknown SLA %q", r.Type, or.ID)
		}
		if r.Type == recObserve {
			e.mu.Lock()
			violated := e.mon.Observe(or.Level)
			e.mu.Unlock()
			if violated != or.Violated {
				return fmt.Errorf("observation of %q was violated=%t live but %t on replay", or.ID, or.Violated, violated)
			}
		}
		s.applyFeedback(or.Feedback)
		if !or.FailedOver {
			return nil
		}
		if or.Offer == nil {
			return fmt.Errorf("failover record for %q without offer", or.ID)
		}
		return s.replayBind(ctx, e, or.Provider, *or.Offer)
	default:
		return fmt.Errorf("unknown record type %q", r.Type)
	}
}

// applyFeedback replays recorded breaker effects verbatim.
func (s *Server) applyFeedback(fb []feedbackRecord) {
	for _, f := range fb {
		switch f.Kind {
		case "success":
			s.health.RecordSuccess(f.Provider)
		case "failure":
			s.health.RecordFailure(f.Provider)
		case "trip":
			s.health.Trip(f.Provider)
		}
	}
}

// feedbackFromOutcome mirrors recordOutcome: the breaker effects a
// negotiation outcome produces, in provider order.
func feedbackFromOutcome(out *Outcome) []feedbackRecord {
	if out == nil {
		return nil
	}
	var fb []feedbackRecord
	for _, po := range out.PerProvider {
		if po.Skipped != "" {
			continue
		}
		kind := "failure"
		if po.Status == sccp.Succeeded {
			kind = "success"
		}
		fb = append(fb, feedbackRecord{Provider: po.Provider, Kind: kind})
	}
	return fb
}

// bumpNextID raises the shared id counter to at least n, keeping
// minted ids unique across a restart.
func (s *Server) bumpNextID(n int) {
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}

// idNumber extracts the numeric suffix of a minted id ("sla-7" → 7).
func idNumber(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return 0
	}
	return n
}
