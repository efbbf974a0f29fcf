package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/wal"
)

// Standby is a warm replica of a leader orchestrator: it tails the
// leader's WAL directory read-only and feeds every record to a
// wal.Replayer — so its state is bit-identical to what a fresh recovery of
// that log would build, at every instant. When the leader dies, Promote
// turns the replica into a serving Orchestrator without replaying the log
// from scratch: it drains the tail, takes the log where the tail stopped
// and runs the orchestrator's takeover. A restarting leader is a standby
// of its own log, promoted at once (NewOrchestrator).
//
// The replica has neither log nor executor while tailing (replay
// re-describes what is already durable, and must not depend on workers
// having rejoined); both arrive at promotion, the executor carrying the new
// leader's fencing epoch.
type Standby struct {
	cfg OrchestratorConfig
	o   *Orchestrator

	mu       sync.Mutex
	tail     *wal.Tailer
	replayer *wal.Replayer
	promoted bool
	rebuilds int
}

// NewStandby builds a standby over cfg.DataDir (required — it is the
// leader's directory). The config should otherwise equal the leader's;
// Executor is ignored until Promote.
func NewStandby(cfg OrchestratorConfig) (*Standby, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("ctrlplane: a standby needs the leader's DataDir")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Standby{cfg: cfg}
	if err := s.bootstrapLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// bootstrapLocked (re)builds the replica: a fresh core, a tail on the
// leader's directory, and a replayer bootstrapped from the tail's newest
// snapshot. The previous replica, if any, is discarded.
func (s *Standby) bootstrapLocked() error {
	o, err := buildCore(s.cfg)
	if err != nil {
		return err
	}
	tail, err := wal.OpenTailer(s.cfg.DataDir)
	if err != nil {
		return err
	}
	replayer, err := wal.NewReplayer(wal.Target{Engine: o.eng, Controller: o.loop, Ledger: o.ledger})
	if err == nil {
		err = replayer.Bootstrap(tail.Snapshot())
	}
	if err != nil {
		tail.Close()
		return err
	}
	s.o, s.tail, s.replayer = o, tail, replayer
	return nil
}

// Poll ingests every record that has become visible since the last call
// and returns how many were applied or parked. A compaction gap (the
// leader snapshotted and removed segments the tail had not read — it can
// outrun a polling replica wholesale when a burst of rounds, a snapshot
// and its compaction all land inside one poll interval) is healed in
// place: the replica discards its state and re-bootstraps from the
// leader's newest snapshot, exactly what restarting the standby process
// would do. Other errors are permanent (corruption, replay divergence):
// the standby must be rebuilt.
func (s *Standby) Poll() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return 0, fmt.Errorf("ctrlplane: standby already promoted")
	}
	return s.pollLocked()
}

func (s *Standby) pollLocked() (int, error) {
	n := 0
	for {
		recs, err := s.tail.Poll()
		if ierr := s.replayer.Ingest(recs...); ierr != nil {
			return n, ierr
		}
		n += len(recs)
		if !errors.Is(err, wal.ErrTailGap) {
			return n, err
		}
		stuck := s.tail.NextLSN()
		s.tail.Close()
		if rerr := s.bootstrapLocked(); rerr != nil {
			return n, fmt.Errorf("ctrlplane: standby re-bootstrap after compaction gap: %w", rerr)
		}
		s.rebuilds++
		if s.tail.NextLSN() <= stuck {
			// No newer snapshot is readable (compaction without a usable
			// snapshot would be a writer bug, or every snapshot is torn):
			// rebuilding again would land on the same gap forever.
			return n, err
		}
		n = 0 // records applied to the discarded replica don't count
	}
}

// Rebuilds reports how many times the replica healed a compaction gap by
// re-bootstrapping from a snapshot (0 when it tailed the whole log live).
func (s *Standby) Rebuilds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuilds
}

// standbyPollEvery is the cadence Run polls the leader's log at.
const standbyPollEvery = 50 * time.Millisecond

// Run polls every standbyPollEvery until ctx ends, a permanent error
// occurs, or the standby is promoted (which returns nil).
func (s *Standby) Run(ctx context.Context) error {
	tick := time.NewTicker(standbyPollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		s.mu.Lock()
		if s.promoted {
			s.mu.Unlock()
			return nil
		}
		_, err := s.pollLocked()
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("ctrlplane: standby tail: %w", err)
		}
	}
}

// Progress reports how far the replica has replayed: the next LSN it
// expects and the rounds applied so far.
func (s *Standby) Progress() (lsn uint64, rounds int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayer.SeenLSN(), s.replayer.Rounds()
}

// Promote turns the replica into the serving orchestrator. Call it only
// after taking the leader lease: the old leader must be dead or fenced
// (exec should carry the new lease's epoch, fence its Check).
//
// It drains the last visible records, takes the log for writing where the
// tail stopped (cutting a torn append off) and runs the same takeover a
// starting leader runs — the log is read once, by the tail. The returned
// Orchestrator is bit-identical to one that had served the whole log
// uninterrupted.
func (s *Standby) Promote(exec admission.Executor, fence func() error) (*Orchestrator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil, fmt.Errorf("ctrlplane: standby already promoted")
	}
	start := time.Now()
	// Final drain: the writer is gone, so one Poll sees everything that
	// will ever be visible.
	if _, err := s.pollLocked(); err != nil {
		return nil, fmt.Errorf("ctrlplane: promote: draining tail: %w", err)
	}
	st, err := s.tail.Take(wal.Options{Fence: fence})
	s.tail.Close()
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: promote: %w", err)
	}
	if err := s.o.takeover(st, s.replayer, exec, start); err != nil {
		st.Close()
		return nil, fmt.Errorf("ctrlplane: promote: %w", err)
	}
	s.promoted = true
	return s.o, nil
}

// Close releases the standby's tail without promoting. No-op after
// Promote (the orchestrator owns the resources then).
func (s *Standby) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoted {
		return nil
	}
	s.promoted = true // poison further Poll/Promote
	return s.tail.Close()
}

// Abort simulates a crash for tests: the engine stops without a drain and
// the WAL drops its unsynced buffer — exactly what SIGKILL leaves behind.
// The orchestrator is unusable afterwards.
func (o *Orchestrator) Abort() {
	o.eng.Stop()
	if o.wal != nil {
		o.wal.Abort()
	}
}
