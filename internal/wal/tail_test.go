package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
	writeSnapshotFile(t, dir, 1)

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

// writeSegmentedLog writes n synced round records, three to a segment (a
// frame is 283 bytes), and returns the segment files, oldest first.
func writeSegmentedLog(t *testing.T, dir string, n int) []string {
	t.Helper()
	s, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 600, NoSync: true})
	for i := 0; i < n; i++ {
		if err := s.AppendRound("default", uint64(i), testRecord(i).Batch); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need ≥ 3 segments, got %v", segs)
	}
	return segs
}

// copyLogDir copies a log directory's files into a fresh directory.
func copyLogDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// writeSnapshotFile hand-writes a snapshot at lsn, as the writer would name it.
func writeSnapshotFile(t *testing.T, dir string, lsn uint64) {
	t.Helper()
	data, err := json.Marshal(&Snapshot{LSN: lsn})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.json", lsn)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTailerAndOpenReachOneVerdict holds the standby's reader and the
// restarting leader's to one verdict over multi-segment directories: the
// same records, or an error naming corruption or a gap — and an error every
// time the tail is polled, never a silent stall on a log that cannot grow.
func TestTailerAndOpenReachOneVerdict(t *testing.T) {
	const n = 9
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, dir string, segs []string)
		wantErr string // "" → records [from, n)
		from    uint64
		torn    bool
	}{
		{name: "flipped byte in a sealed segment", wantErr: "corruption", damage: func(t *testing.T, dir string, segs []string) {
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(segs[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "missing middle segment", wantErr: "gap", damage: func(t *testing.T, dir string, segs []string) {
			if err := os.Remove(segs[1]); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn newest segment", torn: true, damage: func(t *testing.T, dir string, segs []string) {
			f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0x07, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "empty newest segment after a rotation", damage: func(t *testing.T, dir string, segs []string) {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", n)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "mid-segment snapshot", from: 4, damage: func(t *testing.T, dir string, segs []string) {
			writeSnapshotFile(t, dir, 4)
		}},
		{name: "snapshot past the log end", wantErr: "gap", damage: func(t *testing.T, dir string, segs []string) {
			writeSnapshotFile(t, dir, n+3)
		}},
		{name: "every segment missing", wantErr: "gap", damage: func(t *testing.T, dir string, segs []string) {
			writeSnapshotFile(t, dir, 4)
			for _, sg := range segs {
				if err := os.Remove(sg); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.damage(t, dir, writeSegmentedLog(t, dir, n))
			openDir := copyLogDir(t, dir)

			tail, err := OpenTailer(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer tail.Close()
			recs, perr := tail.Poll()
			_, again := tail.Poll()
			ws, rec, oerr := Open(Options{Dir: openDir, NoSync: true})
			if oerr == nil {
				defer ws.Abort()
			}

			if tc.wantErr != "" {
				for what, err := range map[string]error{"first poll": perr, "second poll": again, "Open": oerr} {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("%s = %v, want an error naming %q", what, err, tc.wantErr)
					}
				}
				return
			}
			if perr != nil || again != nil || oerr != nil {
				t.Fatalf("polls = %v, %v; Open = %v; want no error", perr, again, oerr)
			}
			if uint64(len(recs)) != n-tc.from || recs[0].LSN != tc.from {
				t.Fatalf("tail delivered %d records from LSN %d, want %d from %d", len(recs), recs[0].LSN, n-tc.from, tc.from)
			}
			if !reflect.DeepEqual(recs, rec.Records) {
				t.Fatalf("tail and Open disagree:\n tail: %+v\n open: %+v", recs, rec.Records)
			}
			if rec.TornTail != tc.torn {
				t.Fatalf("Open TornTail = %v, want %v", rec.TornTail, tc.torn)
			}
		})
	}
}

// TestTakeOpensWhereTheTailStopped pins the take-over at the tail: a tail
// that has not delivered every whole record is refused, and a drained one
// cuts the crash residue off and hands out a store whose next append gets
// the next LSN.
func TestTakeOpensWhereTheTailStopped(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64, NoSync: true})
	for i := 0; i < 3; i++ {
		if err := s.AppendRound("default", uint64(i), testRecord(i).Batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	fresh, err := OpenTailer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Take(Options{Dir: t.TempDir(), NoSync: true}); err == nil || !strings.Contains(err.Error(), "directory") {
		t.Fatalf("take into another directory = %v, want a refusal naming the directory", err)
	}
	if _, err := fresh.Take(Options{NoSync: true}); err == nil || !strings.Contains(err.Error(), "not delivered LSN 0") {
		t.Fatalf("take by a tail that delivered nothing = %v, want a refusal at LSN 0", err)
	}

	tail, err := OpenTailer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if recs, err := tail.Poll(); err != nil || len(recs) != 3 {
		t.Fatalf("poll: %d records, err %v", len(recs), err)
	}
	// The writer appends one more record and dies mid-way through another.
	if err := s.AppendAdvance("default"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := tail.Take(Options{NoSync: true}); err == nil || !strings.Contains(err.Error(), "not delivered LSN 3") {
		t.Fatalf("take before the last record was delivered = %v, want a refusal at LSN 3", err)
	}

	// A drained tail takes the log: the residue goes, appends continue.
	tail, err = OpenTailer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if recs, err := tail.Poll(); err != nil || len(recs) != 4 {
		t.Fatalf("drain: %d records, err %v", len(recs), err)
	}
	st, err := tail.Take(Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.next != 4 {
		t.Fatalf("taken store appends at LSN %d, want 4", st.next)
	}
	if err := st.AppendAdvance("default"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := mustOpen(t, Options{Dir: dir, NoSync: true})
	defer s2.Close()
	if rec.TornTail || len(rec.Records) != 5 || rec.Records[4].LSN != 4 || rec.Records[4].Rec.Kind != KindAdvance {
		t.Fatalf("reopened log: torn=%v, %d records (last %+v), want 5 whole ones ending in the advance at LSN 4",
			rec.TornTail, len(rec.Records), rec.Records[len(rec.Records)-1])
	}
}
