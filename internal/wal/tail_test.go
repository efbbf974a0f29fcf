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
	"repro/internal/monitor"
	"repro/internal/reopt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/yield"
)

// The standby-replication gate at the storage layer. A leader process
// writes its log with small segments and frequent snapshots (so rotation
// AND compaction both happen under the reader), while a standby that
// joined LATE — after segments below the first snapshot were already
// compacted away — bootstraps from the tailer's snapshot and follows the
// live log. When the leader is hard-killed, the standby finalizes against
// the reopened store (truncating the dead leader's uncommitted step
// prefix, exactly as crash recovery would) and continues the run
// bit-identically to a process that was never replicated at all.

// newStandbyProc builds the un-started target a Replayer feeds: the same
// engine/controller/ledger stack as startProc, minus the WAL (a standby
// only reads) and minus Start (the replay contract requires an engine
// that has never run). Start it at promotion.
func newStandbyProc(t testing.TB, cfg sim.Config, algorithm string) (*proc, *Replayer) {
	t.Helper()
	p := &proc{store: monitor.NewStore(0), ledger: yield.NewLedger()}
	p.eng = admission.New(admission.Config{QueueDepth: 1024, Ledger: p.ledger})
	if err := p.eng.AddDomain("", admission.DomainConfig{Net: cfg.Net, KPaths: cfg.KPaths, Algorithm: algorithm}); err != nil {
		t.Fatal(err)
	}
	ctrl, err := reopt.New(reopt.Config{
		Engine: p.eng, Store: p.store, Ledger: p.ledger,
		HWPeriod: cfg.HWPeriod, ReoptEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.ctrl = ctrl
	rep, err := NewReplayer(Target{Engine: p.eng, Controller: ctrl, Ledger: p.ledger})
	if err != nil {
		t.Fatal(err)
	}
	return p, rep
}

// drainTail polls until the tailer reports nothing new, ingesting every
// record into the replayer.
func drainTail(t testing.TB, tail *Tailer, rep *Replayer) {
	t.Helper()
	for {
		recs, err := tail.Poll()
		if err != nil {
			t.Fatalf("tail poll: %v", err)
		}
		if len(recs) == 0 {
			return
		}
		for _, pr := range recs {
			if err := rep.Ingest(pr); err != nil {
				t.Fatalf("ingest LSN %d: %v", pr.LSN, err)
			}
		}
	}
}

func TestStandbyTailPromotionMatchesUninterrupted(t *testing.T) {
	spec, err := scenario.ByName("diurnal-drift")
	if err != nil {
		t.Fatal(err)
	}
	spec = recCISize(spec)
	cfg := recCompile(t, spec, 42)

	// Uninterrupted reference: no WAL, no standby, no kill.
	refWorld := newWorld(cfg, spec.ReofferPending)
	ref := startProc(t, cfg, spec.Algorithm, "", 0)
	var refLines []string
	for e := 0; e < recEpochs; e++ {
		refLines = append(refLines, refWorld.runEpoch(t, ref, e))
	}
	refFinal := capture(t, ref)
	ref.stop()

	// Leader with small segments and a snapshot every 2 epochs, so the
	// tail crosses rotation and compaction boundaries mid-run.
	dir := t.TempDir()
	w := newWorld(cfg, spec.ReofferPending)
	leader := startProc(t, cfg, spec.Algorithm, dir, 2)
	var lines []string
	const late = 4
	for e := 0; e < late; e++ {
		lines = append(lines, w.runEpoch(t, leader, e))
	}

	// The standby joins late: its bootstrap must come from a snapshot,
	// not a from-zero replay.
	tail, err := OpenTailer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Snapshot() == nil {
		t.Fatal("tailer found no snapshot to bootstrap from; the late-join path is untested")
	}
	sb, replayer := newStandbyProc(t, cfg, spec.Algorithm)
	if err := replayer.Bootstrap(tail.Snapshot()); err != nil {
		t.Fatal(err)
	}

	kill := recEpochs - 2
	for e := late; e < kill; e++ {
		lines = append(lines, w.runEpoch(t, leader, e))
		drainTail(t, tail, replayer)
	}

	// The compaction the standby must have tailed across: the base
	// segment is gone by now (snapshots every 2 epochs, 2 kept).
	if _, statErr := os.Stat(dir + "/wal-0000000000000000.seg"); !os.IsNotExist(statErr) {
		t.Fatalf("base segment still present (stat: %v); the run never compacted under the tailer", statErr)
	}

	// The leader dies mid-step: a settle/observe prefix reaches disk,
	// its round never does. The standby will see the prefix on its final
	// drain and must hold it back, then truncate it at promotion.
	if err := leader.wal.AppendSettle(admission.DefaultDomain, kill-1, []yield.Entry{{Slice: "ghost", Epoch: kill - 1, Realized: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := leader.wal.AppendObserve(admission.DefaultDomain, kill, []string{"ghost"}, []reopt.ObservedPeak{{Name: "ghost", Peak: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := leader.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	leader.kill()

	// Promotion: final drain, reopen the directory for writing, re-feed
	// the opener's recovery batch (idempotent below the high-water mark),
	// finalize, start serving.
	drainTail(t, tail, replayer)
	if replayer.Pending() == 0 {
		t.Fatal("dead leader's uncommitted step prefix never reached the replayer; the hold-back path is untested")
	}
	tail.Close()
	ws, recovered, err := Open(Options{Dir: dir, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replayer.Finalize(ws, recovered.Records)
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	if rep.HeldBack != 2 {
		t.Fatalf("finalize held back %d records, want the 2 uncommitted ones (report %+v)", rep.HeldBack, rep)
	}
	if got := sb.ctrl.Epoch(); got != kill {
		t.Fatalf("standby promoted at epoch %d, want %d (report %+v)", got, kill, rep)
	}
	sb.wal = ws
	if err := sb.eng.Start(); err != nil {
		t.Fatal(err)
	}
	w.reconnect(sb)

	for e := kill; e < recEpochs; e++ {
		lines = append(lines, w.runEpoch(t, sb, e))
	}
	final := capture(t, sb)
	sb.stop()
	assertIdentical(t, "standby promotion", refFinal, final, refLines, lines)
}

// TestTailerGapAfterCompaction pins the fallen-behind failure: a tailer
// that opened at LSN 0 and never polled while the leader snapshotted and
// compacted past it gets ErrTailGap, not silent data loss.
func TestTailerGapAfterCompaction(t *testing.T) {
	spec, err := scenario.ByName("diurnal-drift")
	if err != nil {
		t.Fatal(err)
	}
	spec = recCISize(spec)
	cfg := recCompile(t, spec, 42)

	dir := t.TempDir()
	tail, err := OpenTailer(dir) // before any writes: next record is LSN 0
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	w := newWorld(cfg, spec.ReofferPending)
	p := startProc(t, cfg, spec.Algorithm, dir, 1)
	for e := 0; e < recEpochs; e++ {
		w.runEpoch(t, p, e)
	}
	p.stop()
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
	if r.SeenLSN() != 0 || r.Pending() != 0 || r.Rounds() != 0 {
		t.Fatalf("fresh replayer not at zero: seen=%d pend=%d rounds=%d", r.SeenLSN(), r.Pending(), r.Rounds())
	}

	settle := Record{Kind: KindSettle, Domain: admission.DefaultDomain}
	if err := r.Ingest(PositionedRecord{LSN: 0, Rec: settle}); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 1 || r.SeenLSN() != 1 {
		t.Fatalf("after one pended record: seen=%d pend=%d", r.SeenLSN(), r.Pending())
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
