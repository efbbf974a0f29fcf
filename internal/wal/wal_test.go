package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/admission"
	"repro/internal/reopt"
	"repro/internal/slice"
	"repro/internal/yield"
)

func testRecord(i int) *Record {
	return &Record{
		Kind:   KindRound,
		Domain: "default",
		Seq:    uint64(i),
		Batch: []admission.Request{{
			Name: fmt.Sprintf("slice-%03d", i),
			SLA:  slice.SLA{Template: slice.Table1(slice.EMBB), Duration: 4}.WithPenaltyFactor(2),
		}},
	}
}

// TestFrameRoundTrip pins the frame format: encode/decode is lossless and
// consecutive frames decode back in order from one buffer.
func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	var want []Record
	for i := 0; i < 5; i++ {
		rec := testRecord(i)
		frame, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
		want = append(want, *rec)
	}
	var got []Record
	for len(buf) > 0 {
		rec, n, err := decodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
		buf = buf[n:]
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip diverged:\nwant %+v\ngot  %+v", want, got)
	}
	if _, _, err := decodeFrame(nil); err != io.EOF {
		t.Fatalf("empty buffer: got %v, want io.EOF", err)
	}
}

// TestDecodeRejectsCorruption flips, truncates and inflates frames; every
// mutation must surface as ErrTorn, never as a wrong record or a panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	frame, err := encodeFrame(testRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations: every proper prefix is torn.
	for n := 1; n < len(frame); n++ {
		if _, _, err := decodeFrame(frame[:n]); err != ErrTorn {
			t.Fatalf("prefix of %d bytes: got %v, want ErrTorn", n, err)
		}
	}
	// Single-bit flips anywhere in the frame.
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		rec, _, err := decodeFrame(mut)
		if err == nil {
			// A flip inside the length field can, in principle, still frame
			// a valid shorter record — but only if the CRC also matches,
			// which it cannot for this payload.
			t.Fatalf("bit flip at byte %d decoded as %+v", i, rec)
		}
	}
	// An absurd length field must be rejected before any allocation.
	huge := append([]byte(nil), frame...)
	huge[3] = 0xff
	if _, _, err := decodeFrame(huge); err != ErrTorn {
		t.Fatalf("oversized length: got %v, want ErrTorn", err)
	}
}

func mustOpen(t *testing.T, opt Options) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// TestAppendSyncReopen pins the basic durability contract: synced records
// survive a reopen with contiguous LSNs; unsynced records die with Abort.
func TestAppendSyncReopen(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, Options{Dir: dir})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendRound("default", uint64(i), testRecord(i).Batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SyncRound(); err != nil {
		t.Fatal(err)
	}
	// Buffered, never synced: lost by the crash.
	if err := s.AppendAdvance("default"); err != nil {
		t.Fatal(err)
	}
	s.Abort()

	s2, rec2 := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if len(rec2.Records) != 3 {
		t.Fatalf("recovered %d records, want the 3 synced ones", len(rec2.Records))
	}
	for i, pr := range rec2.Records {
		if pr.LSN != uint64(i) || pr.Rec.Kind != KindRound || pr.Rec.Seq != uint64(i) {
			t.Fatalf("record %d: %+v", i, pr)
		}
	}
	if s2.next != 3 {
		t.Fatalf("next LSN %d, want 3", s2.next)
	}
}

// TestOpenTruncatesTornTail writes a torn frame at the tail of the last
// segment — the crash residue — and expects open to repair it, keeping
// every whole record.
func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 2; i++ {
		if err := s.AppendRound("default", uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if !rec.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	// The repair is physical: a third open sees a clean log.
	s2.Close()
	_, rec3 := mustOpen(t, Options{Dir: dir})
	if rec3.TornTail {
		t.Fatal("tail still torn after repair")
	}
}

// TestRotationKeepsLSNsContiguous forces many rotations and checks the
// reopened log replays every record in order.
func TestRotationKeepsLSNsContiguous(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.AppendRound("default", uint64(i), testRecord(i).Batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	s2, rec := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
	for i, pr := range rec.Records {
		if pr.LSN != uint64(i) || pr.Rec.Seq != uint64(i) {
			t.Fatalf("record %d out of order: %+v", i, pr)
		}
	}
}

// TestRotationReusesAppendWriter pins what a rotation allocates: the store
// points its one append writer at the new segment instead of making another
// writerBytes buffer, so a rotation costs a file handle and its bookkeeping,
// far under the buffer's size.
func TestRotationReusesAppendWriter(t *testing.T) {
	s, _ := mustOpen(t, Options{Dir: t.TempDir(), SegmentBytes: 1, NoSync: true})
	defer s.Close()
	batch := testRecord(0).Batch
	if err := s.AppendRound("default", 0, batch); err != nil {
		t.Fatal(err)
	}
	w, segs := s.w, len(s.segs)
	const n = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		if err := s.AppendRound("default", uint64(i), batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := len(s.segs) - segs; got != n {
		t.Fatalf("%d appends rotated %d times, want every one", n, got)
	}
	if s.w != w {
		t.Fatal("rotation replaced the store's append writer")
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= writerBytes/8 {
		t.Fatalf("an append that rotates allocates %d bytes, want under %d (the writer is %d)", per, writerBytes/8, writerBytes)
	}
}

// TestSnapshotCompactsAndRecovers: snapshots bound replay to the suffix,
// keep one fallback, and delete the segments nothing references.
func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 64})
	led := yield.NewLedger()
	for i := 0; i < 9; i++ {
		if err := s.AppendRound("default", uint64(i), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncRound(); err != nil {
			t.Fatal(err)
		}
		if (i+1)%3 == 0 {
			led.BookExpected("default", float64(i))
			if err := s.WriteSnapshot(&Snapshot{Ledger: led.ExportState()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.AppendAdvance("default"); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	if len(snaps) != 2 {
		t.Fatalf("snapshots on disk: %v, want the newest 2", snaps)
	}
	s2, rec := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if rec.Snapshot == nil || rec.Snapshot.LSN != 9 {
		t.Fatalf("recovered snapshot %+v, want LSN 9", rec.Snapshot)
	}
	if rec.Snapshot.Ledger.ExpectedRounds != 3 {
		t.Fatalf("snapshot ledger %+v", rec.Snapshot.Ledger)
	}
	if len(rec.Records) != 1 || rec.Records[0].Rec.Kind != KindAdvance {
		t.Fatalf("suffix %+v, want just the trailing advance", rec.Records)
	}
	// Compaction must have dropped every segment before the older kept
	// snapshot (LSN 6, where the snapshot's rotation started one) while
	// keeping everything at or after it.
	if len(s2.segs) == 0 || s2.segs[0].base != 6 {
		t.Fatalf("segments after compaction %+v, want the oldest based at LSN 6", s2.segs)
	}

	// Newest snapshot corrupt → fall back to the spare at LSN 6 and replay
	// a longer suffix.
	s2.Close()
	newest := filepath.Join(dir, fmt.Sprintf("snap-%016x.json", 9))
	if err := os.WriteFile(newest, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, rec3 := mustOpen(t, Options{Dir: dir})
	defer s3.Close()
	if rec3.Snapshot == nil || rec3.Snapshot.LSN != 6 {
		t.Fatalf("fallback snapshot %+v, want LSN 6", rec3.Snapshot)
	}
	if len(rec3.Records) != 4 {
		t.Fatalf("fallback suffix has %d records, want 4 (LSNs 6..9)", len(rec3.Records))
	}
}

// TestTruncateTailDropsSuffix pins the uncommitted-tail repair recovery
// relies on: records at or after the cut vanish physically and for good.
func TestTruncateTailDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 96})
	for i := 0; i < 10; i++ {
		if err := s.AppendRound("default", uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := mustOpen(t, Options{Dir: dir})
	if err := s2.TruncateTail(4); err != nil {
		t.Fatal(err)
	}
	// The store keeps appending seamlessly after the cut.
	if got := s2.next; got != 4 {
		t.Fatalf("LSN after truncate = %d, want 4", got)
	}
	if err := s2.AppendRound("default", 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, rec := mustOpen(t, Options{Dir: dir})
	defer s3.Close()
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records after truncate+append, want 5", len(rec.Records))
	}
	for i, pr := range rec.Records {
		if pr.LSN != uint64(i) {
			t.Fatalf("record %d has LSN %d", i, pr.LSN)
		}
	}
}

// TestAppendWhileRecoveringIsNoOp pins the replay re-entry guard: while
// Finalize replays, the engine-facing hooks swallow appends.
func TestAppendWhileRecoveringIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	defer s.Close()
	s.setRecovering(true)
	if err := s.AppendAdvance("default"); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncRound(); err != nil {
		t.Fatal(err)
	}
	s.setRecovering(false)
	if got := s.next; got != 0 {
		t.Fatalf("recovering append advanced the LSN to %d", got)
	}
	if err := s.AppendAdvance("default"); err != nil {
		t.Fatal(err)
	}
	if got := s.next; got != 1 {
		t.Fatalf("post-recovery append did not land: LSN %d", got)
	}
}

// TestIOErrorPoisonsStore pins fail-stop durability: once a write, flush or
// fsync of the log has failed, the store refuses every later append, sync
// and snapshot with that first error — even if the file works again. On
// Linux a failed fsync clears the kernel's error state, so a retry that
// "succeeds" would silently cover lost records. The faults are injected by
// swapping the store's file (or its buffered writer) for a closed one and
// then putting the good one back.
func TestIOErrorPoisonsStore(t *testing.T) {
	closedFile := func(t *testing.T) *os.File {
		f, err := os.Create(filepath.Join(t.TempDir(), "closed"))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return f
	}
	faults := []struct {
		name string
		// fail breaks the store, runs the operation that must fail, repairs
		// the store and returns the operation's error.
		fail func(t *testing.T, s *Store) error
	}{
		{"fsync", func(t *testing.T, s *Store) error {
			good := s.f
			s.f = closedFile(t)
			err := s.Sync()
			s.f = good
			return err
		}},
		{"flush", func(t *testing.T, s *Store) error {
			s.w = bufio.NewWriterSize(closedFile(t), writerBytes)
			if err := s.AppendAdvance("default"); err != nil {
				t.Fatalf("buffered append: %v", err)
			}
			err := s.Sync()
			s.w = bufio.NewWriterSize(s.f, writerBytes)
			return err
		}},
		{"write", func(t *testing.T, s *Store) error {
			// A buffer smaller than one frame writes straight through.
			s.w = bufio.NewWriterSize(closedFile(t), 16)
			err := s.AppendRound("default", 1, testRecord(1).Batch)
			s.w = bufio.NewWriterSize(s.f, writerBytes)
			return err
		}},
	}
	for _, fc := range faults {
		t.Run(fc.name, func(t *testing.T) {
			s, _ := mustOpen(t, Options{Dir: t.TempDir()})
			defer s.Abort()
			if err := s.AppendRound("default", 0, testRecord(0).Batch); err != nil {
				t.Fatal(err)
			}
			first := fc.fail(t, s)
			if first == nil {
				t.Fatal("the injected fault did not fail the operation")
			}
			for op, err := range map[string]error{
				"Sync":          s.Sync(),
				"AppendRound":   s.AppendRound("default", 2, testRecord(2).Batch),
				"WriteSnapshot": s.WriteSnapshot(&Snapshot{}),
			} {
				if err == nil || err.Error() != first.Error() {
					t.Errorf("%s after the fault: got %v, want the first error %q", op, err, first)
				}
			}
		})
	}
	t.Run("clean", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := mustOpen(t, Options{Dir: dir})
		for i := 0; i < 2; i++ {
			if err := s.AppendRound("default", uint64(i), testRecord(i).Batch); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.WriteSnapshot(&Snapshot{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAppendsEncodeBeforeReturning pins what lets the closed loop hand the
// log its own scratch: every append has encoded its arguments by the time it
// returns, so a caller that overwrites the slices it passed — the
// reopt.Controller refills its alive, peaks and forecast buffers every step —
// cannot change what was logged.
func TestAppendsEncodeBeforeReturning(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, Options{Dir: dir})
	alive := []string{"a", "b"}
	peaks := []reopt.ObservedPeak{{Name: "a", Peak: 3}, {Name: "b", Peak: 4}}
	ups := []admission.ForecastUpdate{{Name: "a", LambdaHat: 5, Sigma: 0.5}}
	entries := []yield.Entry{{Slice: "a", Epoch: 1, Realized: 7}}
	if err := s.AppendObserve("default", 2, alive, peaks); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendForecasts("default", ups); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSettle("default", 1, entries); err != nil {
		t.Fatal(err)
	}
	alive[0], alive[1] = "x", "y"
	peaks[0], peaks[1] = reopt.ObservedPeak{Name: "x", Peak: -1}, reopt.ObservedPeak{Name: "y", Peak: -1}
	ups[0] = admission.ForecastUpdate{Name: "x", LambdaHat: -1, Sigma: -1}
	entries[0] = yield.Entry{Slice: "x", Epoch: -1, Realized: -1}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := mustOpen(t, Options{Dir: dir})
	defer s2.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
	obs, fc, st := rec.Records[0].Rec, rec.Records[1].Rec, rec.Records[2].Rec
	if !reflect.DeepEqual(obs.Alive, []string{"a", "b"}) ||
		!reflect.DeepEqual(obs.Peaks, []reopt.ObservedPeak{{Name: "a", Peak: 3}, {Name: "b", Peak: 4}}) {
		t.Errorf("observe record followed its caller's buffers: %+v", obs)
	}
	if !reflect.DeepEqual(fc.Forecasts, []admission.ForecastUpdate{{Name: "a", LambdaHat: 5, Sigma: 0.5}}) {
		t.Errorf("forecasts record followed its caller's buffer: %+v", fc)
	}
	if !reflect.DeepEqual(st.Entries, []yield.Entry{{Slice: "a", Epoch: 1, Realized: 7}}) {
		t.Errorf("settle record followed its caller's buffer: %+v", st)
	}
}
