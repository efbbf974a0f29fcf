package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/admission"
)

// TestTailerGapAfterCompaction pins the fallen-behind failure: a tailer
// that opened at LSN 0 and never polled while the leader snapshotted and
// compacted past it gets ErrTailGap, not silent data loss.
func TestTailerGapAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	tail, err := OpenTailer(dir) // before any writes: next record is LSN 0
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	// The leader logs a step and snapshots after it, epoch after epoch.
	s, _ := mustOpen(t, Options{Dir: dir, NoSync: true})
	for e := 0; e < 4; e++ {
		if err := s.AppendAdvance(admission.DefaultDomain); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(&Snapshot{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(dir + "/wal-0000000000000000.seg"); !os.IsNotExist(statErr) {
		t.Fatalf("base segment still present (stat: %v); compaction never outran the tailer", statErr)
	}

	if _, err := tail.Poll(); !errors.Is(err, ErrTailGap) {
		t.Fatalf("outrun tailer Poll = %v, want ErrTailGap", err)
	}
}

// TestTailerMidSegmentSnapshotBootstrap pins the open-time skip: when the
// bootstrap snapshot's LSN lands inside a segment (the writer rotates on
// snapshot, so this is a hand-crafted degenerate layout, not a normal
// one), the tailer must skip the already-folded records and emit from the
// snapshot's LSN onward.
func TestTailerMidSegmentSnapshotBootstrap(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendAdvance(admission.DefaultDomain); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(&Snapshot{LSN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.json", 1)), snap, 0o644); err != nil {
		t.Fatal(err)
	}

	tail, err := OpenTailer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if tail.Snapshot() == nil || tail.Snapshot().LSN != 1 || tail.NextLSN() != 1 {
		t.Fatalf("bootstrap at LSN %d (snapshot %+v), want 1", tail.NextLSN(), tail.Snapshot())
	}
	recs, err := tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].LSN != 1 || recs[1].LSN != 2 {
		t.Fatalf("poll after mid-segment bootstrap: %+v, want LSNs 1,2", recs)
	}
	if tail.NextLSN() != 3 {
		t.Fatalf("NextLSN %d after draining, want 3", tail.NextLSN())
	}
}

// TestTailerShrunkSegmentFails: a segment shrinking under the tailer means
// a new leader truncated the log this replica already consumed — the
// replica is stale by definition and must die, not resync silently.
func TestTailerShrunkSegmentFails(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.AppendAdvance(admission.DefaultDomain); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	tail, err := OpenTailer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if recs, err := tail.Poll(); err != nil || len(recs) != 2 {
		t.Fatalf("first poll: %d records, err %v", len(recs), err)
	}
	s.Abort()
	if err := os.Truncate(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", 0)), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Poll(); err == nil || !strings.Contains(err.Error(), "shrank") {
		t.Fatalf("poll over a shrunken segment = %v, want a shrank error", err)
	}
}

// TestStoreFencePoisons pins the storage half of fencing: once the fence
// hook fails, every write path fails permanently — even after the hook
// recovers — because a store that was deposed once can never know what a
// successor wrote in the meantime.
func TestStoreFencePoisons(t *testing.T) {
	var fenceErr error
	s, _, err := Open(Options{Dir: t.TempDir(), NoSync: true, Fence: func() error { return fenceErr }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	if err := s.AppendAdvance(admission.DefaultDomain); err != nil {
		t.Fatalf("append under a passing fence: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync under a passing fence: %v", err)
	}

	fenceErr = errors.New("lease lost")
	if err := s.AppendAdvance(admission.DefaultDomain); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("append while fenced = %v, want a fenced error", err)
	}

	fenceErr = nil // the hook recovering must not un-poison the store
	if err := s.Sync(); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("sync after poisoning = %v, want a fenced error", err)
	}
	if err := s.WriteSnapshot(&Snapshot{}); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("snapshot after poisoning = %v, want a fenced error", err)
	}
}

// pending counts the records r holds back for their step's round, over
// every lane.
func pending(r *Replayer) int {
	n := 0
	for _, l := range r.lanes {
		n += len(l.pending)
	}
	return n
}

// TestReplayerContractViolations pins the replayer's refusals: feeding it
// out of contract must error loudly, never corrupt standby state.
func TestReplayerContractViolations(t *testing.T) {
	if _, err := NewReplayer(Target{}); err == nil {
		t.Fatal("NewReplayer accepted a target with no engine")
	}
	eng := admission.New(admission.Config{})
	r, err := NewReplayer(Target{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if r.SeenLSN() != 0 || pending(r) != 0 || r.Rounds() != 0 {
		t.Fatalf("fresh replayer not at zero: seen=%d pend=%d rounds=%d", r.SeenLSN(), pending(r), r.Rounds())
	}

	settle := Record{Kind: KindSettle, Domain: admission.DefaultDomain}
	if err := r.Ingest(PositionedRecord{LSN: 0, Rec: settle}); err != nil {
		t.Fatal(err)
	}
	if pending(r) != 1 || r.SeenLSN() != 1 {
		t.Fatalf("after one pended record: seen=%d pend=%d", r.SeenLSN(), pending(r))
	}
	// Bootstrap after ingest: the snapshot would silently drop the pended
	// prefix.
	if err := r.Bootstrap(&Snapshot{LSN: 5}); err == nil {
		t.Fatal("Bootstrap accepted after records were ingested")
	}
	// A gap above the high-water mark: records were lost in transit.
	if err := r.Ingest(PositionedRecord{LSN: 3, Rec: settle}); err == nil {
		t.Fatal("Ingest accepted a gapped LSN")
	}
	// An advance over a pending prefix: the log is malformed (advances
	// ride behind their round in the same group commit).
	if err := r.Ingest(PositionedRecord{LSN: 1, Rec: Record{Kind: KindAdvance, Domain: admission.DefaultDomain}}); err == nil {
		t.Fatal("Ingest applied an advance over a pending step prefix")
	}
	// Idempotent re-delivery below the mark stays accepted.
	if err := r.Ingest(PositionedRecord{LSN: 0, Rec: settle}); err != nil {
		t.Fatalf("re-delivery below the high-water mark: %v", err)
	}
}
