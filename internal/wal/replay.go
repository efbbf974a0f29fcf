package wal

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// Replayer is the one replay path: it applies a log's records to a Target
// under the hold-back rule — a step's settle/observe/forecasts prefix stays
// pending until the step's round arrives behind it. That is what keeps the
// rebuilt state a function of *committed* decisions only: a prefix whose
// round never lands is a crashed writer's residue, and Finalize truncates
// it. A standby feeds it a poll at a time as the leader writes; crash
// recovery (Recover) feeds it the whole suffix at once.
//
// The order that is the specification is the per-domain LSN order. Domains
// share no state a record can observe (the ledger they all book into
// reduces per key in sorted order), so Ingest routes every record of a
// batch to its domain's lane and runs the lanes side by side on up to
// GOMAXPROCS goroutines. Every schedule this produces ends where the
// LSN-serial replay ends; with one processor the lanes run one after another
// on the caller's goroutine, and a batch of one record (or one domain) is the
// serial replay itself.
//
// Feeding discipline: Bootstrap (optionally) with a snapshot, then Ingest
// every record in LSN order. Records below the high-water mark are skipped,
// so at takeover the caller hands Finalize Open's Recovered.Records
// wholesale without tracking what a tail already delivered. Finalize ends
// the replay against the now-writable Store: ingest the rest, truncate the
// pending residue, complete a trailing round-without-advance.
//
// An error is fatal to the replica: the lowest-LSN error is returned — the
// one the serial replay would have stopped at — but other lanes may have
// replayed past that LSN by then, so the target must be discarded, never
// served from.
type Replayer struct {
	t     Target
	lanes map[string]*lane

	seen        uint64 // next unseen LSN
	snapshotLSN uint64
	active      []*lane // lanes with queued records (Ingest scratch)
}

// lane is one domain's share of the replay: its held-back prefix, what it
// applied, and the records queued for it by the Ingest in progress. Between
// Ingest calls queue is empty.
type lane struct {
	pending    []PositionedRecord // step prefix waiting for its round, in LSN order
	last       string             // last applied kind
	maxApplied uint64             // newest applied LSN (0 while nothing is)
	applied    int
	rounds     int

	queue []PositionedRecord
	err   error
	errAt uint64 // LSN of the queued record err stopped at
}

// NewReplayer builds a replayer over a freshly constructed, un-started
// target (ReplayRound requires the engine to have never run).
func NewReplayer(t Target) (*Replayer, error) {
	if t.Engine == nil {
		return nil, fmt.Errorf("wal: replayer needs an engine")
	}
	return &Replayer{t: t, lanes: map[string]*lane{}}, nil
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
	r.snapshotLSN = snap.LSN
	return nil
}

// SeenLSN returns the next LSN Ingest expects (everything below it has
// been ingested or was folded into the bootstrap snapshot).
func (r *Replayer) SeenLSN() uint64 { return r.seen }

// Pending counts records held back waiting for their step's round.
func (r *Replayer) Pending() int {
	n := 0
	for _, l := range r.lanes {
		n += len(l.pending)
	}
	return n
}

// Rounds counts the rounds applied so far.
func (r *Replayer) Rounds() int {
	n := 0
	for _, l := range r.lanes {
		n += l.rounds
	}
	return n
}

// Domains counts the domains that have had a record so far — the lanes a
// batch can spread over.
func (r *Replayer) Domains() int { return len(r.lanes) }

func (r *Replayer) lane(domain string) *lane {
	l := r.lanes[domain]
	if l == nil {
		l = &lane{}
		r.lanes[domain] = l
	}
	return l
}

func (l *lane) apply(t Target, pr PositionedRecord) error {
	if err := replayOne(t, pr.Rec); err != nil {
		return fmt.Errorf("wal: replay at LSN %d: %w", pr.LSN, err)
	}
	if pr.Rec.Kind == KindRound {
		l.rounds++
	}
	l.last = pr.Rec.Kind
	l.maxApplied = pr.LSN
	l.applied++
	return nil
}

// ingest takes one record of the lane's domain, in the domain's LSN order.
func (l *lane) ingest(t Target, pr PositionedRecord) error {
	switch pr.Rec.Kind {
	case KindSettle, KindObserve, KindForecasts:
		// Step prefix: pends until this domain's round commits it.
		l.pending = append(l.pending, pr)
		return nil
	case KindRound:
		// The commit point: the pending prefix is durable-behind-a-round
		// now, so it applies, then the round itself.
		for _, p := range l.pending {
			if err := l.apply(t, p); err != nil {
				return err
			}
		}
		l.pending = nil
		return l.apply(t, pr)
	case KindAdvance:
		// An advance always rides behind its round in the same group
		// commit; a pending prefix here means the log is malformed.
		if len(l.pending) > 0 {
			return fmt.Errorf("wal: replayer: advance at LSN %d over a pending step prefix in domain %q", pr.LSN, pr.Rec.Domain)
		}
		return l.apply(t, pr)
	default:
		// Topology records are fsynced at append time and are not part of
		// a step's prefix: they apply immediately (an unknown kind fails
		// here, in replayOne). One is allowed to interleave a pending prefix (its fsync can land
		// between a step's settle and round appends); rounds replayed
		// later still observe it in log order, and settle/observe do not
		// read the state it mutates.
		return l.apply(t, pr)
	}
}

// drain ingests the lane's queue, stopping at its first error.
func (l *lane) drain(t Target) {
	for _, pr := range l.queue {
		if l.err = l.ingest(t, pr); l.err != nil {
			l.errAt = pr.LSN
			break
		}
	}
	l.queue = l.queue[:0]
}

// runLanes drains every lane with queued records, side by side, and
// returns the error the serial replay would have met first.
func (r *Replayer) runLanes() error {
	parallel.ForEach(len(r.active), 0, func(i int) { r.active[i].drain(r.t) })
	var first *lane
	for _, l := range r.active {
		if l.err != nil && (first == nil || l.errAt < first.errAt) {
			first = l
		}
	}
	r.active = r.active[:0]
	if first != nil {
		return first.err
	}
	return nil
}

// Ingest feeds a batch of records in LSN order — one record from a caller
// that has one, a whole poll or a whole recovered suffix from one that has
// more. Records below the high-water mark are skipped (idempotent
// re-delivery); a gap above it fails the batch before any of it applies.
func (r *Replayer) Ingest(batch ...PositionedRecord) error {
	want := r.seen
	for _, pr := range batch {
		if pr.LSN > want {
			return fmt.Errorf("wal: replayer gap: got LSN %d, want %d", pr.LSN, want)
		}
		if pr.LSN == want {
			want++
		}
	}
	for _, pr := range batch {
		if pr.LSN < r.seen {
			continue
		}
		r.seen++
		l := r.lane(pr.Rec.Domain)
		if len(l.queue) == 0 {
			r.active = append(r.active, l)
		}
		l.queue = append(l.queue, pr)
	}
	return r.runLanes()
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
	err := r.Ingest(rest...)
	s.setRecovering(false)
	if err != nil {
		return nil, err
	}

	rep := Report{SnapshotLSN: r.snapshotLSN}
	first, maxApplied := r.seen, uint64(0)
	var complete []string
	for domain, l := range r.lanes {
		rep.Applied += l.applied
		rep.Rounds += l.rounds
		rep.HeldBack += len(l.pending)
		if len(l.pending) > 0 && l.pending[0].LSN < first {
			first = l.pending[0].LSN
		}
		if l.maxApplied > maxApplied {
			maxApplied = l.maxApplied
		}
		if l.last == KindRound {
			complete = append(complete, domain)
		}
	}
	if rep.HeldBack > 0 {
		if maxApplied > first {
			// One domain's committed records landed after another's
			// uncommitted prefix: the residue is not the physical tail and
			// cannot be truncated. No correct writer leaves this behind —
			// a step's prefix and round reach disk in one group commit,
			// behind which every domain's later records are ordered.
			return nil, fmt.Errorf("wal: committed record at LSN %d after uncommitted tail starting at LSN %d (multi-domain interleave); cannot truncate", maxApplied, first)
		}
		if err := s.TruncateTail(first); err != nil {
			return nil, err
		}
		for _, l := range r.lanes {
			l.pending = nil
		}
		r.seen = first
	}

	sort.Strings(complete)
	for _, domain := range complete {
		if _, err := r.t.Engine.Advance(domain); err != nil {
			return nil, fmt.Errorf("wal: completing advance for domain %q: %w", domain, err)
		}
		if c := r.t.ctrlFor(domain); c != nil {
			c.ReplayAdvanced()
		}
		r.lanes[domain].last = KindAdvance
		rep.CompletedAdvance = append(rep.CompletedAdvance, domain)
	}
	return &rep, nil
}
