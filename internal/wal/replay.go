package wal

import (
	"fmt"
	"sort"
)

// Replayer is the one replay path: it applies a log's records to a Target
// in LSN order, under the hold-back rule — a step's settle/observe/
// forecasts prefix stays pending until the step's round arrives behind it.
// That is what keeps the rebuilt state a function of *committed* decisions
// only: a prefix whose round never lands is a crashed writer's residue, and
// Finalize truncates it. A standby feeds it record by record as the leader
// writes; crash recovery (Recover) feeds it the whole suffix at once.
//
// Feeding discipline: Bootstrap (optionally) with a snapshot, then Ingest
// every record in LSN order. Records below the high-water mark are skipped,
// so at takeover the caller hands Finalize Open's Recovered.Records
// wholesale without tracking what a tail already delivered. Finalize ends
// the replay against the now-writable Store: ingest the rest, truncate the
// pending residue, complete a trailing round-without-advance.
type Replayer struct {
	t       Target
	pending map[string][]PositionedRecord
	pend    int
	last    map[string]string // last applied kind per domain

	seen       uint64 // next unseen LSN
	maxApplied uint64 // newest applied LSN (0 while nothing is)
	rep        Report
}

// NewReplayer builds a replayer over a freshly constructed, un-started
// target (ReplayRound requires the engine to have never run).
func NewReplayer(t Target) (*Replayer, error) {
	if t.Engine == nil {
		return nil, fmt.Errorf("wal: replayer needs an engine")
	}
	return &Replayer{
		t:       t,
		pending: map[string][]PositionedRecord{},
		last:    map[string]string{},
	}, nil
}

// Bootstrap restores a snapshot (nil: start from empty state at LSN 0) and
// positions the replayer at its LSN. Call at most once, before any Ingest.
func (r *Replayer) Bootstrap(snap *Snapshot) error {
	if snap == nil {
		return nil
	}
	if r.seen != 0 {
		return fmt.Errorf("wal: replayer bootstrap after records were ingested")
	}
	if err := restoreSnapshot(r.t, snap); err != nil {
		return err
	}
	r.seen = snap.LSN
	r.rep.SnapshotLSN = snap.LSN
	return nil
}

// SeenLSN returns the next LSN Ingest expects (everything below it has
// been ingested or was folded into the bootstrap snapshot).
func (r *Replayer) SeenLSN() uint64 { return r.seen }

// Pending counts records held back waiting for their step's round.
func (r *Replayer) Pending() int { return r.pend }

// Rounds counts the rounds applied so far.
func (r *Replayer) Rounds() int { return r.rep.Rounds }

func (r *Replayer) apply(pr PositionedRecord) error {
	if err := replayOne(r.t, pr.Rec); err != nil {
		return fmt.Errorf("wal: replay at LSN %d: %w", pr.LSN, err)
	}
	if pr.Rec.Kind == KindRound {
		r.rep.Rounds++
	}
	r.last[pr.Rec.Domain] = pr.Rec.Kind
	r.maxApplied = pr.LSN
	r.rep.Applied++
	return nil
}

// Ingest feeds one record in LSN order. Records below the high-water mark
// are skipped (idempotent re-delivery); a gap above it is an error.
func (r *Replayer) Ingest(pr PositionedRecord) error {
	if pr.LSN < r.seen {
		return nil
	}
	if pr.LSN != r.seen {
		return fmt.Errorf("wal: replayer gap: got LSN %d, want %d", pr.LSN, r.seen)
	}
	r.seen++
	switch pr.Rec.Kind {
	case KindSettle, KindObserve, KindForecasts:
		// Step prefix: pends until this domain's round commits it.
		r.pending[pr.Rec.Domain] = append(r.pending[pr.Rec.Domain], pr)
		r.pend++
		return nil
	case KindRound:
		// The commit point: the pending prefix is durable-behind-a-round
		// now, so it applies, then the round itself.
		for _, p := range r.pending[pr.Rec.Domain] {
			if err := r.apply(p); err != nil {
				return err
			}
			r.pend--
		}
		delete(r.pending, pr.Rec.Domain)
		return r.apply(pr)
	case KindAdvance:
		// An advance always rides behind its round in the same group
		// commit; a pending prefix here means the log is malformed.
		if len(r.pending[pr.Rec.Domain]) > 0 {
			return fmt.Errorf("wal: replayer: advance at LSN %d over a pending step prefix in domain %q", pr.LSN, pr.Rec.Domain)
		}
		return r.apply(pr)
	default:
		// Topology/handover records are fsynced at append time and are
		// not part of a step's prefix: they apply immediately. One is
		// allowed to interleave a pending prefix (its fsync can land
		// between a step's settle and round appends); rounds replayed
		// later still observe it in log order, and settle/observe do not
		// read the state it mutates.
		return r.apply(pr)
	}
}

// Finalize ends the replay and hands the log over for writing: s is the
// directory opened by the process about to serve, rest what its Open found
// (for a standby, normally nothing the tail had not delivered). The rest is
// ingested with s's appends suppressed — replay drives the engine and
// controller through their live paths, whose log hooks must not re-log
// what is being replayed. Then the pending residue — step prefixes whose
// round never became durable, never acked to anyone — is physically
// truncated so the interrupted step re-runs live, and a trailing
// round-without-advance is completed: its outcomes were acked, so the step
// must finish, deterministically and logged, exactly as the dead writer
// would have finished it. The Report summarizes the whole replay since
// Bootstrap.
func (r *Replayer) Finalize(s *Store, rest []PositionedRecord) (*Report, error) {
	s.setRecovering(true)
	var err error
	for _, pr := range rest {
		if err = r.Ingest(pr); err != nil {
			break
		}
	}
	s.setRecovering(false)
	if err != nil {
		return nil, err
	}

	if r.pend > 0 {
		// Each domain's pending list is in LSN order and never empty.
		first := r.seen
		for _, prs := range r.pending {
			if prs[0].LSN < first {
				first = prs[0].LSN
			}
		}
		if r.maxApplied > first {
			// Only possible when several domains interleave in one log and
			// one domain's committed records landed after another's
			// uncommitted prefix: the residue is not the physical tail and
			// cannot be truncated. The in-tree deployments are one domain
			// per log.
			return nil, fmt.Errorf("wal: committed record at LSN %d after uncommitted tail starting at LSN %d (multi-domain interleave); cannot truncate", r.maxApplied, first)
		}
		if err := s.TruncateTail(first); err != nil {
			return nil, err
		}
		r.rep.HeldBack = r.pend
		r.pending = map[string][]PositionedRecord{}
		r.pend = 0
		r.seen = first
	}

	var complete []string
	for domain, k := range r.last {
		if k == KindRound {
			complete = append(complete, domain)
		}
	}
	sort.Strings(complete)
	for _, domain := range complete {
		if _, err := r.t.Engine.Advance(domain); err != nil {
			return nil, fmt.Errorf("wal: completing advance for domain %q: %w", domain, err)
		}
		if c := r.t.ctrlFor(domain); c != nil {
			c.ReplayAdvanced()
		}
		r.last[domain] = KindAdvance
		r.rep.CompletedAdvance = append(r.rep.CompletedAdvance, domain)
	}
	rep := r.rep
	return &rep, nil
}
